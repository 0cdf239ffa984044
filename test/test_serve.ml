(* Tier-1 coverage for the request-serving layer (lib/serve) and the
   first-class Spec/Workload API it is built on: nearest-rank
   percentile accounting on hand-computed streams, the log-bucketed
   quantile sketch against the exact reference (qcheck), streaming
   generator invariants and its equivalence to the materialised
   reference, the interarrival boundary-draw regression,
   -j determinism of a full cell, crash+recovery oracle validation on
   a random shard (qcheck), Spec JSON round-tripping, and the
   workload registry contract. *)

open Ido_runtime
open Ido_serve

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Lat: nearest-rank percentiles, hand-computed. *)

let percentile_hand () =
  (* 5 sorted values: rank(q) = ceil (q/100 * 5). *)
  let s = [| 1; 3; 5; 7; 9 |] in
  Alcotest.(check int) "p50 of 5 = 3rd" 5 (Lat.percentile s 50.0);
  Alcotest.(check int) "p60 of 5 = 3rd" 5 (Lat.percentile s 60.0);
  Alcotest.(check int) "p61 of 5 = 4th" 7 (Lat.percentile s 61.0);
  Alcotest.(check int) "p95 of 5 = 5th" 9 (Lat.percentile s 95.0);
  Alcotest.(check int) "p99 of 5 = 5th" 9 (Lat.percentile s 99.0);
  Alcotest.(check int) "p100 = max" 9 (Lat.percentile s 100.0);
  Alcotest.(check int) "p0 clamps to 1st" 1 (Lat.percentile s 0.0);
  Alcotest.(check int) "singleton" 42 (Lat.percentile [| 42 |] 50.0);
  Alcotest.(check int) "empty = 0" 0 (Lat.percentile [||] 99.0)

let percentile_hundred () =
  (* 1..100: pK is exactly K. *)
  let s = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Lat.percentile s 50.0);
  Alcotest.(check int) "p95" 95 (Lat.percentile s 95.0);
  Alcotest.(check int) "p99" 99 (Lat.percentile s 99.0)

let of_latencies_hand () =
  (* Unsorted input; of_latencies must sort a copy. *)
  let input = [| 7; 1; 9; 3; 5 |] in
  let st = Lat.of_latencies ~dropped:2 input in
  Alcotest.(check int) "served" 5 st.Lat.served;
  Alcotest.(check int) "dropped" 2 st.Lat.dropped;
  Alcotest.(check (float 1e-9)) "mean" 5.0 st.Lat.mean_ns;
  Alcotest.(check int) "p50" 5 st.Lat.p50;
  Alcotest.(check int) "p95" 9 st.Lat.p95;
  Alcotest.(check int) "p99" 9 st.Lat.p99;
  Alcotest.(check int) "max" 9 st.Lat.max_ns;
  Alcotest.(check (array int)) "input untouched" [| 7; 1; 9; 3; 5 |] input

let of_latencies_empty () =
  let st = Lat.of_latencies [||] in
  Alcotest.(check int) "served" 0 st.Lat.served;
  Alcotest.(check int) "p99" 0 st.Lat.p99;
  Alcotest.(check (float 1e-9)) "mean" 0.0 st.Lat.mean_ns

let percentile_matches_spec =
  QCheck.Test.make ~name:"percentile is the nearest-rank element" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (int_bound 1000))
        (float_range 1.0 100.0))
    (fun (l, q) ->
      let s = Array.of_list (List.sort Int.compare l) in
      let n = Array.length s in
      let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
      let rank = max 1 (min n rank) in
      Lat.percentile s q = s.(rank - 1))

(* ------------------------------------------------------------------ *)
(* Lat: the quantile sketch against the exact reference. *)

let sketch_of_list l =
  let t = Lat.create () in
  List.iter (Lat.add t) l;
  t

let sketch_edges () =
  let empty = Lat.create () in
  Alcotest.(check int) "empty p99" 0 (Lat.percentile_sketch empty 99.0);
  let st = Lat.stats empty in
  Alcotest.(check int) "empty served" 0 st.Lat.served;
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 st.Lat.mean_ns;
  (* A single sample is reported exactly at every quantile (the
     bucket top is capped at the observed max). *)
  let one = sketch_of_list [ 123_456_789 ] in
  let st = Lat.stats ~dropped:3 one in
  Alcotest.(check int) "n=1 p50 exact" 123_456_789 st.Lat.p50;
  Alcotest.(check int) "n=1 p99 exact" 123_456_789 st.Lat.p99;
  Alcotest.(check int) "n=1 max exact" 123_456_789 st.Lat.max_ns;
  Alcotest.(check int) "dropped carried" 3 st.Lat.dropped;
  Alcotest.(check (float 1e-9)) "n=1 mean exact" 123_456_789.0 st.Lat.mean_ns

let sketch_exact_small () =
  (* Values below 128 have unit buckets: the sketch IS nearest-rank. *)
  let l = List.init 127 (fun i -> (i * 89) mod 127) in
  let t = sketch_of_list l in
  let sorted = Array.of_list (List.sort Int.compare l) in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%.0f exact below 128" q)
        (Lat.percentile sorted q)
        (Lat.percentile_sketch t q))
    [ 1.0; 50.0; 90.0; 95.0; 99.0; 100.0 ]

let sketch_within_bound =
  QCheck.Test.make
    ~name:"sketch quantile within documented relative error of nearest-rank"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 400) (int_bound 2_000_000_000))
        (float_range 1.0 100.0))
    (fun (l, q) ->
      let t = sketch_of_list l in
      let sorted = Array.of_list (List.sort Int.compare l) in
      let exact = Lat.percentile sorted q in
      let approx = Lat.percentile_sketch t q in
      if approx < exact then
        QCheck.Test.fail_reportf "under-report: %d < exact %d" approx exact;
      let bound =
        exact + int_of_float (ceil (float_of_int exact *. Lat.relative_error))
      in
      if approx > bound then
        QCheck.Test.fail_reportf "over bound: %d > %d (exact %d)" approx bound
          exact;
      true)

let sketch_merge_is_exact =
  QCheck.Test.make ~name:"merged sketches = sketch of concatenation" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 200) (int_bound 1_000_000))
        (list_of_size Gen.(int_range 0 200) (int_bound 1_000_000)))
    (fun (a, b) ->
      let merged = sketch_of_list a in
      Lat.merge ~into:merged (sketch_of_list b);
      let whole = sketch_of_list (a @ b) in
      Lat.stats merged = Lat.stats whole)

(* ------------------------------------------------------------------ *)
(* Gen: the interarrival sampler at its boundaries (regression: a
   boundary draw u = 1.0 used to produce log 0 = -inf and poison the
   arrival clock with min_int gaps). *)

let gap_boundaries () =
  (* u = 1.0: survival clamps at 2^-53, so the gap is the largest a
     53-bit uniform can express: 1500 * 53 ln 2, rounded = 55105. *)
  Alcotest.(check int) "u=1.0 clamps finite" 55105
    (Gen.gap_of_u ~mean:1500.0 1.0);
  Alcotest.(check int) "u=0.0 floors at 1" 1 (Gen.gap_of_u ~mean:1500.0 0.0);
  Alcotest.(check bool)
    "u just below 1.0 stays below the clamp" true
    (Gen.gap_of_u ~mean:1500.0 (1.0 -. epsilon_float)
    <= Gen.gap_of_u ~mean:1500.0 1.0);
  (* Median of the exponential: mean * ln 2. *)
  Alcotest.(check int) "median draw" 1040 (Gen.gap_of_u ~mean:1500.0 0.5)

let gap_always_positive =
  QCheck.Test.make ~name:"gap is a positive int at every u in [0,1]"
    ~count:500
    QCheck.(float_range 0.0 1.0)
    (fun u ->
      let g = Gen.gap_of_u ~mean:1500.0 u in
      g >= 1 && g <= 55105)

(* ------------------------------------------------------------------ *)
(* Gen: streaming plan and per-shard iterator invariants. *)

let config ?(workload = "queue") ?(scheme = Scheme.Ido) ?(seed = 7)
    ?(shards = 4) ?(replicas = 0) ?reshard ?(batch = 4) ?(requests = 200)
    ?zipf () =
  Config.make ~seed
    ~topology:(Topology.make ~replicas ?reshard shards)
    ~batch ~requests ?zipf ~workload ~scheme ()

let plan_conserves_requests () =
  List.iter
    (fun shards ->
      let c = config ~shards ~requests:503 ~zipf:0.99 () in
      let p = Gen.plan c ~key_range:64 in
      let total =
        List.fold_left ( + ) 0 (List.init shards (Gen.shard_count p))
      in
      Alcotest.(check int)
        (Printf.sprintf "counts sum at %d shards" shards)
        503 total)
    [ 1; 2; 3; 4; 7; 16 ]

let plan_zero_mass_shards () =
  (* More shards than keys: some shards own no keys, must get no
     requests, and their streams must be empty immediately. *)
  let c = config ~shards:16 ~requests:100 () in
  let p = Gen.plan c ~key_range:8 in
  Alcotest.(check int) "counts still sum" 100
    (List.fold_left ( + ) 0 (List.init 16 (Gen.shard_count p)));
  let owned = Array.make 16 false in
  for k = 0 to 7 do
    owned.(Gen.shard_of ~shards:16 k) <- true
  done;
  for s = 0 to 15 do
    if not owned.(s) then begin
      Alcotest.(check int) (Printf.sprintf "shard %d keyless" s) 0
        (Gen.shard_count p s);
      Alcotest.(check bool)
        (Printf.sprintf "shard %d stream empty" s)
        true
        (Gen.next (Gen.sub_stream p s) = None)
    end
  done

let stream_invariants () =
  let c = config ~requests:500 ~zipf:0.99 () in
  let p = Gen.plan c ~key_range:64 in
  for shard = 0 to 3 do
    let s = Gen.sub_stream p shard in
    let prev_arrival = ref 0 in
    let i = ref 0 in
    let rec go () =
      match Gen.next s with
      | None -> ()
      | Some (r : Gen.request) ->
          if r.Gen.id <> !i then
            Alcotest.failf "id %d at position %d" r.Gen.id !i;
          if r.Gen.arrival <= !prev_arrival then
            Alcotest.failf "arrivals not strictly increasing at %d" !i;
          prev_arrival := r.Gen.arrival;
          if r.Gen.key < 0 || r.Gen.key >= 64 then
            Alcotest.failf "key %d out of range" r.Gen.key;
          if r.Gen.dice < 0 || r.Gen.dice >= 100 then
            Alcotest.failf "dice %d out of range" r.Gen.dice;
          if r.Gen.shard <> shard then
            Alcotest.failf "request on wrong shard at %d" !i;
          if Gen.shard_of ~shards:4 r.Gen.key <> shard then
            Alcotest.failf "key %d routes off-shard" r.Gen.key;
          incr i;
          go ()
    in
    go ();
    Alcotest.(check int) "yields exactly the plan count"
      (Gen.shard_count p shard) !i
  done

let streaming_matches_materialized () =
  (* Driving the stream with [next] must reproduce the materialised
     reference array element for element. *)
  List.iter
    (fun shards ->
      let c = config ~shards ~requests:300 ~zipf:0.99 () in
      let p = Gen.plan c ~key_range:256 in
      for shard = 0 to shards - 1 do
        let reference = Gen.materialize p shard in
        let s = Gen.sub_stream p shard in
        Array.iteri
          (fun i r ->
            match Gen.next s with
            | Some nexted when nexted = r -> ()
            | _ -> Alcotest.failf "next differs at %d (shards=%d)" i shards)
          reference;
        Alcotest.(check bool)
          (Printf.sprintf "exhausted after %d" (Array.length reference))
          true
          (Gen.next s = None)
      done)
    [ 1; 2; 4; 5 ]

let stream_deterministic () =
  let c = config ~requests:300 () in
  let p1 = Gen.plan c ~key_range:128 and p2 = Gen.plan c ~key_range:128 in
  for shard = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d: same seed, same stream" shard)
      true
      (Gen.materialize p1 shard = Gen.materialize p2 shard)
  done

let shard_of_stable () =
  (* A key must route identically however often we ask. *)
  for k = 0 to 199 do
    Alcotest.(check int)
      (Printf.sprintf "key %d" k)
      (Gen.shard_of ~shards:4 k) (Gen.shard_of ~shards:4 k)
  done;
  (* All shards reachable over a modest key range. *)
  let hit = Array.make 4 false in
  for k = 0 to 199 do
    hit.(Gen.shard_of ~shards:4 k) <- true
  done;
  Alcotest.(check (array bool)) "all shards hit" [| true; true; true; true |] hit

(* ------------------------------------------------------------------ *)
(* Serve: accounting and -j determinism. *)

let cell_accounting () =
  let c = config ~requests:150 () in
  let cell = Serve.run_cell ~obs:true c in
  Alcotest.(check int) "served = requests" 150 cell.Serve.stats.Lat.served;
  Alcotest.(check int) "nothing dropped" 0 cell.Serve.stats.Lat.dropped;
  Alcotest.(check bool) "oracle ok" true (cell.Serve.oracle = Ok ());
  Alcotest.(check bool) "obs reconciles" true (cell.Serve.consistency = Ok ());
  Alcotest.(check bool) "positive makespan" true (cell.Serve.makespan_ns > 0);
  let per_shard =
    List.fold_left (fun a o -> a + o.Shard.served) 0 cell.Serve.shards
  in
  Alcotest.(check int) "shard sums agree" 150 per_shard

let pooled_cell_identical spec_cfg () =
  let serial = Serve.run_cell ~obs:true spec_cfg in
  let pooled =
    Ido_util.Pool.with_pool 4 (fun pool ->
        Serve.run_cell ~pool ~obs:true spec_cfg)
  in
  Alcotest.(check string)
    "cell JSON identical at -j4"
    (Report.cell_json serial) (Report.cell_json pooled)

(* ------------------------------------------------------------------ *)
(* Crash on a random shard: after recovery, every shard's oracle and
   obs reconciliation must pass, and served + dropped must cover the
   whole stream. *)

let crash_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* shards = int_range 1 4 in
    let* batch = int_range 1 4 in
    let* scheme = oneofl [ Scheme.Ido; Scheme.Justdo ] in
    let* crash_shard = int_range 0 (shards - 1) in
    let* after_ns = int_range 50 2_000 in
    return (seed, shards, batch, scheme, crash_shard, after_ns))

let crash_arb =
  QCheck.make crash_gen ~print:(fun (seed, shards, batch, scheme, cs, ns) ->
      Printf.sprintf "seed=%d shards=%d batch=%d scheme=%s crash=%d after=%d"
        seed shards batch (Scheme.name scheme) cs ns)

let crash_random_shard =
  QCheck.Test.make ~name:"oracles pass after a mid-stream shard crash"
    ~count:12 crash_arb (fun (seed, shards, batch, scheme, crash_shard, after_ns) ->
      let c = config ~workload:"queue" ~scheme ~seed ~shards ~batch ~requests:120 () in
      let module W = Ido_workloads.Workload in
      let key_range = (W.get "queue").W.request.W.key_range in
      let sub = Gen.shard_count (Gen.plan c ~key_range) crash_shard in
      QCheck.assume (sub > 0);
      let crash =
        { Fault.shard = crash_shard; at_request = sub / 2; after_ns }
      in
      let cell = Serve.run_cell ~obs:true ~fault:(Fault.of_crash crash) c in
      let total =
        cell.Serve.stats.Lat.served + cell.Serve.stats.Lat.dropped
      in
      (match cell.Serve.oracle with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "oracle: %s" m);
      (match cell.Serve.consistency with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "obs: %s" m);
      total = 120
      && List.exists (fun o -> o.Shard.crashes > 0) cell.Serve.shards)

(* ------------------------------------------------------------------ *)
(* Elastic serving: topology naming, config validation, the sweep
   grid, failover, resharding, and storm determinism. *)

let topology_names () =
  List.iter
    (fun (t, n) ->
      Alcotest.(check string) ("name of " ^ n) n (Topology.name t);
      match Topology.of_name n with
      | Ok t' -> Alcotest.(check bool) (n ^ " round-trips") true (t = t')
      | Error m -> Alcotest.failf "%s did not parse: %s" n m)
    [
      (Topology.static 1, "s1");
      (Topology.static 4, "s4");
      (Topology.replicated ~replicas:1 4, "s4r1");
      (Topology.replicated ~replicas:2 3, "s3r2");
      (Topology.make ~reshard:Topology.Split 4, "s4sp");
      (Topology.make ~replicas:1 ~reshard:Topology.Merge 4, "s4r1mg");
    ];
  List.iter
    (fun bad ->
      match Topology.of_name bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error _ -> ())
    [ ""; "s"; "4"; "s0"; "sr1"; "s4r"; "s4xx"; "s4sp1"; "s1mg" ]

let config_validates_zipf () =
  List.iter
    (fun e ->
      match config ~zipf:e () with
      | _ -> Alcotest.failf "zipf %g accepted" e
      | exception Invalid_argument _ -> ())
    [ 0.0; -0.5; 1.0 ];
  (* Valid exponents still construct. *)
  ignore (config ~zipf:0.99 () : Config.t);
  ignore (config ~zipf:1.2 () : Config.t)

let sweep_default_grid () =
  let cells = Sweep.cells (Sweep.default ~workload:"kvcache50") in
  Alcotest.(check int) "8 cells" 8 (List.length cells);
  (* scheme -> topology -> batch order, and the historical labels. *)
  Alcotest.(check (list string))
    "labels in grid order"
    [
      "kvcache50/ido s1 b1"; "kvcache50/ido s1 b8";
      "kvcache50/ido s4 b1"; "kvcache50/ido s4 b8";
      "kvcache50/justdo s1 b1"; "kvcache50/justdo s1 b8";
      "kvcache50/justdo s4 b1"; "kvcache50/justdo s4 b8";
    ]
    (List.map Config.label cells)

(* Failover: a replicated cell under the planned single crash must
   serve the whole stream (zero dropped — the warm replica replays the
   unacknowledged tail) with every oracle and reconciliation clean. *)
let failover_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* shards = int_range 1 4 in
    let* replicas = int_range 1 2 in
    let* batch = int_range 1 4 in
    let* scheme = oneofl [ Scheme.Ido; Scheme.Justdo ] in
    return (seed, shards, replicas, batch, scheme))

let failover_arb =
  QCheck.make failover_gen ~print:(fun (seed, shards, replicas, batch, scheme) ->
      Printf.sprintf "seed=%d shards=%d replicas=%d batch=%d scheme=%s" seed
        shards replicas batch (Scheme.name scheme))

let failover_absorbs_crash =
  QCheck.Test.make ~name:"failover serves everything: 0 dropped, oracles ok"
    ~count:10 failover_arb (fun (seed, shards, replicas, batch, scheme) ->
      let c =
        config ~workload:"queue" ~scheme ~seed ~shards ~replicas ~batch
          ~requests:120 ()
      in
      let cell = Serve.run_cell ~obs:true ~fault:(Fault.single_crash c) c in
      (match cell.Serve.oracle with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "oracle: %s" m);
      (match cell.Serve.consistency with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "obs: %s" m);
      if cell.Serve.stats.Lat.dropped <> 0 then
        QCheck.Test.fail_reportf "dropped %d with a warm replica"
          cell.Serve.stats.Lat.dropped;
      if cell.Serve.stats.Lat.served <> 120 then
        QCheck.Test.fail_reportf "served %d of 120"
          cell.Serve.stats.Lat.served;
      let failovers =
        List.fold_left (fun a o -> a + o.Shard.failovers) 0 cell.Serve.shards
      in
      if failovers <> 1 then
        QCheck.Test.fail_reportf "expected exactly 1 failover, got %d"
          failovers;
      cell.Serve.replayed > 0 && cell.Serve.max_stall_ns > 0)

(* Split: the hot group forks mid-stream; the whole stream is still
   served exactly once and both the warm parent and the split child
   pass their final-image oracles. *)
let split_preserves_stream () =
  List.iter
    (fun (scheme, batch) ->
      let c =
        config ~workload:"kvcache50" ~scheme ~seed:11 ~shards:4
          ~reshard:Topology.Split ~batch ~requests:300 ~zipf:0.99 ()
      in
      let cell = Serve.run_cell ~obs:true c in
      Alcotest.(check int) "served = requests" 300 cell.Serve.stats.Lat.served;
      Alcotest.(check int) "nothing dropped" 0 cell.Serve.stats.Lat.dropped;
      Alcotest.(check bool) "oracle ok" true (cell.Serve.oracle = Ok ());
      Alcotest.(check bool) "obs reconciles" true
        (cell.Serve.consistency = Ok ());
      Alcotest.(check bool) "some group split" true
        (List.exists (fun o -> o.Shard.split_off) cell.Serve.shards);
      (* The split pause is charged as a stall. *)
      Alcotest.(check bool) "migration stall recorded" true
        (cell.Serve.max_stall_ns > 0))
    [ (Scheme.Ido, 8); (Scheme.Justdo, 4) ]

(* Merge: the coldest group retires mid-stream onto the hottest's
   station; the cold image is validated at the handoff and the hot
   station serves both tails. *)
let merge_preserves_stream () =
  let c =
    config ~workload:"kvcache50" ~seed:11 ~shards:4 ~reshard:Topology.Merge
      ~batch:8 ~requests:300 ~zipf:0.99 ()
  in
  let cell = Serve.run_cell ~obs:true c in
  Alcotest.(check int) "served = requests" 300 cell.Serve.stats.Lat.served;
  Alcotest.(check int) "nothing dropped" 0 cell.Serve.stats.Lat.dropped;
  Alcotest.(check bool) "oracle ok" true (cell.Serve.oracle = Ok ());
  Alcotest.(check bool) "obs reconciles" true (cell.Serve.consistency = Ok ());
  Alcotest.(check bool) "some group merged away" true
    (List.exists (fun o -> o.Shard.merged_away) cell.Serve.shards)

(* Routing invariant under every elastic topology: each group's
   outcome only aggregates its own sub-stream, so per-group serves
   sum to the stream and no group exceeds its plan count. *)
let elastic_routing_invariant () =
  List.iter
    (fun reshard ->
      let c =
        config ~workload:"kvcache50" ~seed:3 ~shards:4 ~replicas:1 ?reshard
          ~batch:8 ~requests:250 ~zipf:0.99 ()
      in
      let module W = Ido_workloads.Workload in
      let key_range = (W.get "kvcache50").W.request.W.key_range in
      let plan = Gen.plan c ~key_range in
      let cell = Serve.run_cell ~obs:true ~fault:(Fault.single_crash c) c in
      List.iter
        (fun (o : Shard.outcome) ->
          Alcotest.(check int)
            (Printf.sprintf "group %d serves its whole sub-stream"
               o.Shard.group)
            (Gen.shard_count plan o.Shard.group)
            (o.Shard.served + o.Shard.dropped))
        cell.Serve.shards)
    [ None; Some Topology.Split; Some Topology.Merge ]

(* Storm cells must stay byte-identical across -j and --chunk — the
   cornerstone determinism invariant, now under correlated faults. *)
let storm_pooled_identical () =
  List.iter
    (fun (replicas, reshard) ->
      let c =
        config ~workload:"kvcache50" ~seed:5 ~shards:4 ~replicas ?reshard
          ~batch:8 ~requests:200 ~zipf:0.99 ()
      in
      let fault = Fault.storm c in
      let serial = Serve.run_cell ~obs:true ~fault c in
      let pooled =
        Ido_util.Pool.with_pool 4 (fun pool ->
            Serve.run_cell ~pool ~chunk:2 ~obs:true ~fault c)
      in
      Alcotest.(check string)
        (Printf.sprintf "storm cell identical at -j4 --chunk 2 (r%d)" replicas)
        (Report.cell_json serial) (Report.cell_json pooled))
    [ (0, None); (1, None); (1, Some Topology.Merge) ]

let fault_validate_rejects () =
  let c = config ~shards:2 () in
  match
    Fault.validate c
      (Fault.of_crash { Fault.shard = 5; at_request = 0; after_ns = 10 })
  with
  | () -> Alcotest.fail "out-of-range group accepted"
  | exception Invalid_argument _ -> ()

(* A replicated group that loses its only replica and then crashes has
   nothing to fail over to: it recovers in place, and the report counts
   the lost replica.  Every request is still served or dropped. *)
let replica_loss_then_crash () =
  let c =
    config ~workload:"kvcache50" ~seed:3 ~shards:2 ~replicas:1 ~batch:8
      ~requests:200 ~zipf:0.99 ()
  in
  let g = 0 and mid = Config.mid_stream_ns c in
  let fault =
    {
      Fault.label = "loss+crash";
      detect_ns = Topology.detect_ns;
      events =
        [
          Fault.Replica_loss { group = g; at_ns = mid / 2 };
          Fault.Crash_at { group = g; at_ns = mid };
        ];
    }
  in
  Fault.validate c fault;
  let cell = Serve.run_cell ~obs:true ~fault c in
  let o = List.find (fun o -> o.Shard.group = g) cell.Serve.shards in
  Alcotest.(check int) "one replica lost" 1 o.Shard.replicas_lost;
  Alcotest.(check int) "one crash" 1 o.Shard.crashes;
  Alcotest.(check int) "no failover without a replica" 0 o.Shard.failovers;
  Alcotest.(check bool) "recovered in place" true (o.Shard.recovery_ns > 0);
  let json = Report.cell_json cell in
  let fields = {|"crashes":1,"failovers":0,"replicas_lost":1,|} in
  let n = String.length fields in
  let rec has i =
    i + n <= String.length json && (String.sub json i n = fields || has (i + 1))
  in
  Alcotest.(check bool) ("report has " ^ fields) true (has 0);
  Alcotest.(check int) "served + dropped = offered" 200
    (cell.Serve.stats.Lat.served + cell.Serve.stats.Lat.dropped);
  Alcotest.(check bool) "oracle ok" true (cell.Serve.oracle = Ok ());
  Alcotest.(check bool) "obs reconciles" true (cell.Serve.consistency = Ok ())

(* ------------------------------------------------------------------ *)
(* Spec: JSON round-trip through the trace-header fragment. *)

let spec_roundtrip () =
  let s =
    Ido_harness.Spec.make ~seed:97 ~scheme:Scheme.Atlas ~workload:"hmap"
      ~threads:3 ~ops:250 ()
  in
  let line = "{" ^ Ido_harness.Spec.json_fields s ^ "}" in
  let s' = Ido_harness.Spec.of_json ~fail:(fun m -> Failure m) line in
  Alcotest.(check bool) "scheme" true (s'.Ido_harness.Spec.scheme = Scheme.Atlas);
  Alcotest.(check string) "workload" "hmap" s'.Ido_harness.Spec.workload;
  Alcotest.(check int) "seed" 97 s'.Ido_harness.Spec.seed;
  Alcotest.(check int) "threads" 3 s'.Ido_harness.Spec.threads;
  Alcotest.(check int) "ops" 250 s'.Ido_harness.Spec.ops;
  (* Re-emitting must reproduce the fragment byte for byte. *)
  Alcotest.(check string)
    "fragment stable"
    (Ido_harness.Spec.json_fields s)
    (Ido_harness.Spec.json_fields s')

let spec_bad_json () =
  let fail m = Failure m in
  (match
     Ido_harness.Spec.of_json ~fail
       {|{"scheme":"zeta","workload":"queue","seed":1,"threads":1,"ops":1}|}
   with
  | _ -> Alcotest.fail "unknown scheme accepted"
  | exception Failure _ -> ());
  match
    Ido_harness.Spec.of_json ~fail {|{"scheme":"ido","workload":"queue"}|}
  with
  | _ -> Alcotest.fail "missing field accepted"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Workload registry contract. *)

let registry_contract () =
  let module W = Ido_workloads.Workload in
  Alcotest.(check bool) "at least 8 entries" true (List.length W.all >= 8);
  List.iter
    (fun (w : W.t) ->
      Alcotest.(check bool)
        (w.W.name ^ " findable") true
        (W.find w.W.name <> None);
      Alcotest.(check bool)
        (w.W.name ^ " key_range positive") true
        (w.W.request.W.key_range > 0);
      let p = W.program w in
      Alcotest.(check bool)
        (w.W.name ^ " has request entry") true
        (List.mem_assoc "request" p.Ido_ir.Ir.funcs);
      Alcotest.(check bool)
        (w.W.name ^ " has init entry") true
        (List.mem_assoc "init" p.Ido_ir.Ir.funcs))
    W.all;
  Alcotest.(check bool) "unknown not found" true (W.find "nosuch" = None);
  match W.get "nosuch" with
  | _ -> Alcotest.fail "get on unknown name must raise"
  | exception Invalid_argument m ->
      Alcotest.(check bool)
        "message lists valid names" true
        (let contains s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         contains m "queue" && contains m "kvcache50")

let suites =
  [
    ( "serve-lat",
      [
        Alcotest.test_case "nearest-rank by hand (n=5)" `Quick percentile_hand;
        Alcotest.test_case "pK of 1..100 is K" `Quick percentile_hundred;
        Alcotest.test_case "of_latencies hand-computed" `Quick of_latencies_hand;
        Alcotest.test_case "of_latencies on empty" `Quick of_latencies_empty;
        qtest percentile_matches_spec;
      ] );
    ( "serve-sketch",
      [
        Alcotest.test_case "sketch edge cases (n=0, n=1)" `Quick sketch_edges;
        Alcotest.test_case "sketch exact below 128" `Quick sketch_exact_small;
        qtest sketch_within_bound;
        qtest sketch_merge_is_exact;
      ] );
    ( "serve-gen",
      [
        Alcotest.test_case "interarrival boundary draws" `Quick gap_boundaries;
        qtest gap_always_positive;
        Alcotest.test_case "plan conserves requests" `Quick
          plan_conserves_requests;
        Alcotest.test_case "keyless shards get nothing" `Quick
          plan_zero_mass_shards;
        Alcotest.test_case "stream invariants" `Quick stream_invariants;
        Alcotest.test_case "streaming = materialized reference" `Quick
          streaming_matches_materialized;
        Alcotest.test_case "stream deterministic" `Quick stream_deterministic;
        Alcotest.test_case "shard routing stable" `Quick shard_of_stable;
      ] );
    ( "serve-cell",
      [
        Alcotest.test_case "accounting adds up" `Quick cell_accounting;
        Alcotest.test_case "queue/ido s4: -j4 = serial" `Quick
          (pooled_cell_identical (config ()));
        Alcotest.test_case "kvcache50/justdo s2 b8 zipf: -j4 = serial" `Quick
          (pooled_cell_identical
             (config ~workload:"kvcache50" ~scheme:Scheme.Justdo ~shards:2
                ~batch:8 ~requests:150 ~zipf:0.99 ()));
        qtest crash_random_shard;
      ] );
    ( "serve-elastic",
      [
        Alcotest.test_case "topology names round-trip" `Quick topology_names;
        Alcotest.test_case "config rejects bad zipf" `Quick
          config_validates_zipf;
        Alcotest.test_case "default sweep grid" `Quick sweep_default_grid;
        qtest failover_absorbs_crash;
        Alcotest.test_case "split serves whole stream" `Quick
          split_preserves_stream;
        Alcotest.test_case "merge serves whole stream" `Quick
          merge_preserves_stream;
        Alcotest.test_case "routing invariant under faults" `Quick
          elastic_routing_invariant;
        Alcotest.test_case "storm cells: -j4 --chunk 2 = serial" `Quick
          storm_pooled_identical;
        Alcotest.test_case "fault validation rejects bad groups" `Quick
          fault_validate_rejects;
        Alcotest.test_case "replica loss, then crash: recovered in place"
          `Quick replica_loss_then_crash;
      ] );
    ( "serve-spec",
      [
        Alcotest.test_case "spec JSON round-trip" `Quick spec_roundtrip;
        Alcotest.test_case "spec rejects bad JSON" `Quick spec_bad_json;
        Alcotest.test_case "workload registry contract" `Quick
          registry_contract;
      ] );
  ]
