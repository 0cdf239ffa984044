(* The fuzzer (PR 6): coverage digests, input codec round-trips,
   shrinking properties (same diagnostic, monotone, bounded),
   campaign determinism across pool sizes, and corpus round-trips
   through both the NDJSON store and the PR-3 mutation corpus. *)

open Ido_runtime
module Cov = Ido_fuzz.Cov
module Input = Ido_fuzz.Input
module Exec = Ido_fuzz.Exec
module Shrink = Ido_fuzz.Shrink
module Corpus = Ido_fuzz.Corpus
module Fuzz = Ido_fuzz.Fuzz
module Mutate = Ido_lint.Mutate
module Engine = Ido_check.Engine

let qtest = QCheck_alcotest.to_alcotest

(* The features of one buffered run, as the streamed accumulator
   collects them. *)
let features ~scheme events =
  let a = Cov.acc ~scheme in
  List.iter (Cov.observe a) events;
  Cov.collect a

(* ---------- generators ---------- *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Input.Load (k mod Input.cells)) small_nat);
        ( 4,
          map2
            (fun k v -> Input.Store (k mod Input.cells, v mod 50))
            small_nat small_nat );
        (2, map (fun k -> Input.Addi (k mod 7)) small_nat);
        (1, return Input.Mix);
      ])

let tree_gen =
  QCheck.Gen.(
    let ops = list_size (int_range 1 5) op_gen in
    frequency
      [
        (3, map (fun l -> Input.Seq l) ops);
        (2, map2 (fun a b -> Input.If (a, b)) ops ops);
        (2, map2 (fun n l -> Input.Loop (1 + (n mod 4), l)) small_nat ops);
        (1, map (fun l -> Input.Unlocked l) ops);
      ])

let base_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl (List.map (fun w -> Input.Workload w) Ido_workloads.Workload.names));
        (2, map (fun ts -> Input.Random ts) (list_size (int_range 1 4) tree_gen));
      ])

let edit_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Mutate.Delete_hook (k mod 24)) small_nat;
        map (fun k -> Mutate.Dup_hook (k mod 24)) small_nat;
        map (fun k -> Mutate.Elide_cut (k mod 8)) small_nat;
        map (fun k -> Mutate.Drop_cut (k mod 8)) small_nat;
        return Mutate.Hoist_store;
      ])

let input_gen =
  QCheck.Gen.(
    let scheme =
      oneofl Scheme.[ Ido; Justdo; Atlas; Mnemosyne; Nvthreads ]
    in
    let variant =
      frequency
        [
          (3, return None);
          ( 1,
            map
              (fun i ->
                Some (List.nth Protocol.faults (i mod List.length Protocol.faults)))
              small_nat );
        ]
    in
    map2
      (fun (scheme, base) (edits, (variant, crashes)) ->
        Input.make ~edits ?variant ~crashes ~scheme base)
      (pair scheme base_gen)
      (pair
         (list_size (int_range 0 2) edit_gen)
         (pair variant (list_size (int_range 0 3) (int_bound 200)))))

let input_arb = QCheck.make ~print:Input.label input_gen

(* ---------- coverage ---------- *)

let cov_deterministic () =
  let spec = Engine.defaults ~scheme:Scheme.Justdo ~workload:"queue" () in
  let tr1 = Engine.run_traced ~index:25 spec in
  let tr2 = Engine.run_traced ~index:25 spec in
  let f1 = features ~scheme:"justdo" (Ido_obs.Obs.events tr1.Engine.t_obs) in
  let f2 = features ~scheme:"justdo" (Ido_obs.Obs.events tr2.Engine.t_obs) in
  Alcotest.(check bool) "same features" true (f1 = f2);
  Alcotest.(check string) "same digest" (Cov.digest f1) (Cov.digest f2);
  Alcotest.(check bool) "nonempty" true (Array.length f1 > 0);
  (* scheme salting: the same trace under another scheme name is a
     different behaviour *)
  let f3 = features ~scheme:"atlas" (Ido_obs.Obs.events tr1.Engine.t_obs) in
  Alcotest.(check bool) "scheme-salted" true (f1 <> f3)

let cov_seen_set () =
  let t = Cov.create () in
  let fs = [| 1; 2; 3 |] in
  Alcotest.(check int) "all novel" 3 (Cov.novel t fs);
  Cov.add t fs;
  Alcotest.(check int) "none novel" 0 (Cov.novel t fs);
  Alcotest.(check int) "one novel" 1 (Cov.novel t [| 3; 4 |]);
  Alcotest.(check int) "buckets" 3 (Cov.buckets t)

let cov_static () =
  let f1 = Cov.static_features ~scheme:"justdo" ~codes:[ "L201" ] ~shape:"x" in
  let f2 = Cov.static_features ~scheme:"justdo" ~codes:[ "L201" ] ~shape:"x" in
  let f3 = Cov.static_features ~scheme:"justdo" ~codes:[ "L202" ] ~shape:"x" in
  Alcotest.(check bool) "deterministic" true (f1 = f2);
  Alcotest.(check bool) "code-sensitive" true (f1 <> f3)

(* The list-based extraction the streamed one replaced, kept as the
   reference: per-thread streams rebuilt from the buffered run, every
   2-gram, 3-gram and edge folded over a part list, deduplicated in a
   table and sorted. *)
let reference_features ~scheme (events : Ido_obs.Obs.event list) =
  let module Obs = Ido_obs.Obs in
  let mix h x = (((h lsl 5) + h) lxor x) land 0x3FFFFFFF in
  let strseed s =
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
      s;
    !h
  in
  let salt0 = strseed scheme in
  let seen = Hashtbl.create 256 in
  let put salt parts =
    Hashtbl.replace seen
      (List.fold_left mix (mix salt0 salt) parts land 0xFFFF)
      ()
  in
  let is_fase_level (ev : Obs.event) =
    match ev.Obs.kind with
    | Obs.Boundary _ | Obs.Fase_enter | Obs.Fase_exit | Obs.Crash
    | Obs.Recovery_step _ ->
        true
    | _ -> false
  in
  let streams = Hashtbl.create 8 in
  List.iter
    (fun (ev : Obs.event) ->
      let prev = try Hashtbl.find streams ev.Obs.tid with Not_found -> [] in
      Hashtbl.replace streams ev.Obs.tid (ev :: prev))
    events;
  Hashtbl.iter
    (fun _tid rev ->
      let evs = Array.of_list (List.rev rev) in
      let n = Array.length evs in
      let pt i = Obs.coverage_point evs.(i) in
      for i = 0 to n - 2 do
        put 0x1A [ pt i; pt (i + 1) ];
        if i + 2 < n then put 0x1A [ pt i; pt (i + 1); pt (i + 2) ]
      done;
      let last_region = ref None in
      let last_fase_pt = ref None in
      Array.iter
        (fun (ev : Obs.event) ->
          (match ev.Obs.kind with
          | Obs.Boundary { region; elided } ->
              (match !last_region with
              | Some r -> put 0x2B [ r; region; (if elided then 1 else 0) ]
              | None -> ());
              last_region := Some region
          | _ -> ());
          if is_fase_level ev then begin
            let p = Obs.coverage_point ev in
            (match !last_fase_pt with
            | Some q -> put 0x3C [ q; p ]
            | None -> ());
            last_fase_pt := Some p
          end)
        evs)
    streams;
  List.sort_uniq compare (Hashtbl.fold (fun b () acc -> b :: acc) seen [])

let reference_merge sets = List.sort_uniq compare (List.concat sets)

(* A coverage case: a workload pair crashed at some raw indices (each
   reduced modulo the schedule, as the fuzzer does), or a random genome
   under a scheme. *)
let cov_case_gen =
  QCheck.Gen.(
    let scheme = oneofl Scheme.[ Ido; Justdo; Atlas; Mnemosyne; Nvthreads ] in
    let crashes = list_size (int_range 0 2) (int_bound 2000) in
    frequency
      [
        ( 1,
          map3
            (fun s w cs -> (s, Input.Workload w, cs))
            scheme
            (oneofl Ido_workloads.Workload.names)
            crashes );
        ( 1,
          map3
            (fun s ts cs -> (s, Input.Random ts, cs))
            scheme
            (list_size (int_range 1 4) tree_gen)
            crashes );
      ])

let cov_case_arb =
  QCheck.make
    ~print:(fun (s, base, cs) -> Input.label (Input.make ~crashes:cs ~scheme:s base))
    cov_case_gen

(* Streamed coverage equals the list-based reference, run by run and
   merged across a candidate's runs.  Workload cases take their streams
   from [Engine.run_traced] and also check the fuzzer's own evaluation
   ([Exec.run] streams every probe through one accumulator); genome
   cases stream through a sink's tap while it buffers. *)
let prop_streamed_coverage_matches_reference =
  QCheck.Test.make
    ~name:"streamed coverage = list-based reference (per run and merged)"
    ~count:60 cov_case_arb (fun (scheme, base, crashes) ->
      let sname = Scheme.name scheme in
      let check_runs runs =
        let acc = Cov.acc ~scheme:sname in
        let per_run =
          List.map
            (fun evs ->
              Cov.new_run acc;
              List.iter (Cov.observe acc) evs;
              let r = reference_features ~scheme:sname evs in
              if Array.to_list (features ~scheme:sname evs) <> r then
                QCheck.Test.fail_report "per-run features differ";
              r)
            runs
        in
        let merged = reference_merge per_run in
        if Array.to_list (Cov.collect acc) <> merged then
          QCheck.Test.fail_report "merged features differ";
        merged
      in
      match base with
      | Input.Workload workload ->
          QCheck.assume (Engine.supported scheme workload);
          let spec = Engine.defaults ~scheme ~workload () in
          let total = Array.length (Engine.record spec) in
          let indices = List.map (fun c -> c mod (total + 1)) crashes in
          let events tr = Ido_obs.Obs.events tr.Engine.t_obs in
          let merged =
            check_runs
              (events (Engine.run_traced spec)
              :: List.map
                   (fun index -> events (Engine.run_traced ~index spec))
                   indices)
          in
          let o = Exec.run (Input.make ~crashes ~scheme base) in
          Array.to_list o.Exec.o_features = merged
      | Input.Random _ ->
          let custom =
            {
              Engine.c_program =
                Input.source_program (Input.make ~scheme base);
              c_scheme = scheme;
              c_seed = 7;
              c_cache_lines = 64;
              c_threads = 1;
              c_worker_arg = 0L;
              c_opt = false;
              c_validate = (fun _ -> Ok ());
            }
          in
          let acc = Cov.acc ~scheme:sname in
          let probe ?index () =
            Cov.new_run acc;
            let obs = Ido_obs.Obs.create ~tap:(Cov.observe acc) () in
            ignore (Engine.probe ?index ~obs custom);
            Ido_obs.Obs.events obs
          in
          let free = probe () in
          let total =
            List.length
              (List.filter
                 (fun (e : Ido_obs.Obs.event) ->
                   Ido_obs.Obs.crash_point e.Ido_obs.Obs.kind)
                 free)
          in
          let crashed =
            List.map (fun c -> probe ~index:(c mod (total + 1)) ()) crashes
          in
          let merged = check_runs (free :: crashed) in
          Array.to_list (Cov.collect acc) = merged)

(* The schedule the fuzzer derives from its crash-free probe equals the
   one a separate recording run returns: same length, same fence/lock
   hint indices, for every pair the default campaign seeds. *)
let schedule_without_recording () =
  List.iter
    (fun (scheme, workload) ->
      let label = Printf.sprintf "%s/%s" (Scheme.name scheme) workload in
      let recorded =
        Engine.record (Engine.defaults ~scheme ~workload ())
      in
      let hints =
        List.filter
          (fun k ->
            match recorded.(k) with
            | Ido_obs.Obs.Fence _ | Ido_obs.Obs.Lock_acquire _
            | Ido_obs.Obs.Lock_release _ ->
                true
            | _ -> false)
          (List.init (Array.length recorded) Fun.id)
      in
      let o = Exec.run (Input.make ~scheme (Input.Workload workload)) in
      Alcotest.(check int) (label ^ " schedule length")
        (Array.length recorded) o.Exec.o_schedule;
      Alcotest.(check (list int)) (label ^ " hints") hints o.Exec.o_hints)
    (Fuzz.pairs_of Fuzz.default_config)

(* ---------- one forward run per candidate ---------- *)

(* The dynamic evaluation the forward-run one replaced, kept as the
   reference: a crash-free [Engine.probe], then one from-boot
   [Engine.probe] per crash point of the input, in input order, each
   reduced modulo the schedule length + 1, all streaming into one
   coverage accumulator that starts every crashed run afresh. *)
let reference_run (input : Input.t) =
  let module Obs = Ido_obs.Obs in
  let module Oracle = Ido_workloads.Oracle in
  let scheme = input.Input.scheme in
  let mode = Oracle.default_mode scheme in
  let mem m =
    let pm = Ido_vm.Vm.pmem m in
    { Oracle.load = Ido_nvm.Pmem.load pm; size = Ido_nvm.Pmem.size pm }
  in
  let heap m =
    Engine.heap_words m ~base:(Int64.to_int (Engine.probe_root m))
      ~len:Input.cells
  in
  let initial = Array.init Input.cells Input.initial_cell in
  let reference = ref None in
  let custom, validate_free, validate_crashed =
    match input.Input.base with
    | Input.Workload workload ->
        let v m =
          Oracle.validate ~workload ~mode ~root:(Engine.probe_root m) (mem m)
        in
        (Engine.custom_of_spec (Engine.defaults ~scheme ~workload ()), v, v)
    | Input.Random _ ->
        let seed =
          let h = ref 0x811c9dc5 in
          String.iter
            (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
            (Input.base_to_string input.Input.base);
          1 + (!h mod 1000)
        in
        ( {
            Engine.c_program = Input.source_program input;
            c_scheme = scheme;
            c_seed = seed;
            c_cache_lines = (Ido_vm.Vm.config scheme).Ido_vm.Vm.cache_lines;
            c_threads = 1;
            c_worker_arg = 0L;
            c_opt = false;
            c_validate = (fun _ -> Ok ());
          },
          (fun m ->
            reference := Some (heap m);
            Ok ()),
          fun m ->
            let got = heap m in
            match !reference with
            | Some r when got = r || got = initial -> Ok ()
            | Some _ -> Error "torn heap: neither reference nor initial state"
            | None -> Error "internal: reference heap missing" )
  in
  let acc = Cov.acc ~scheme:(Scheme.name scheme) in
  let len = ref 0 and hints = ref [] in
  let free_obs =
    Obs.create ~buffer:false
      ~tap:(fun ev ->
        Cov.observe acc ev;
        if Obs.crash_point ev.Obs.kind then begin
          (match ev.Obs.kind with
          | Obs.Fence _ | Obs.Lock_acquire _ | Obs.Lock_release _ ->
              hints := !len :: !hints
          | _ -> ());
          incr len
        end)
      ()
  in
  let free =
    Engine.probe ~obs:free_obs { custom with Engine.c_validate = validate_free }
  in
  let crashed =
    List.map
      (fun c ->
        let index = c mod (!len + 1) in
        Cov.new_run acc;
        let obs = Obs.create ~buffer:false ~tap:(Cov.observe acc) () in
        Engine.probe ~index ~obs { custom with Engine.c_validate = validate_crashed })
      input.Input.crashes
  in
  let failures =
    List.concat_map
      (fun (p : Engine.probe) ->
        (match p.Engine.pr_verdict with
        | Ok () -> []
        | Error msg ->
            let recovery =
              String.length msg >= 15 && String.sub msg 0 15 = "recovery raised"
            in
            [ ((if recovery then "F702" else "F701"), msg) ])
        @
        match p.Engine.pr_consistency with
        | Ok () -> []
        | Error msg -> [ ("F703", msg) ])
      (free :: crashed)
  in
  ( Cov.collect acc,
    !len,
    List.rev !hints,
    match failures with
    | [] -> None
    | (_, detail) :: _ ->
        Some
          {
            Exec.f_codes = List.sort_uniq compare (List.map fst failures);
            f_detail = detail;
          } )

(* The ido torn-heap genome the campaign finds organically at seed 40
   as [+c80]: of its 51 crash points, 28–31 and 37–41 tear the heap
   (F701), and 80 wraps onto 29.  Its crash list puts the later failing
   point first, so the first failure is 40 in input order and 29 in
   sorted order. *)
let failing_genome =
  match Input.base_of_string "random:s(S9.46;L4)|l1(A3)|l1(M;S3.40)" with
  | Some base ->
      Input.make ~crashes:[ 40; 5; 29; 80; 29 ] ~scheme:Scheme.Ido base
  | None -> Alcotest.fail "failing genome does not parse"

(* Crash lists that restore (in range, index 0 and the terminal index,
   duplicates, unsorted) and that wrap past the schedule, both onto a
   captured index and onto one nothing captured. *)
let crash_lists len =
  [
    [ len; 3; 0; 3; len + 4; 1 ];
    [ (2 * len) + 1; len / 2; len + 1 + (len / 2); 0 ];
    [ len + 2; len + 2; len - 1 ];
  ]

let restored_matches_from_boot () =
  List.iter
    (fun (input : Input.t) ->
      let len = (Exec.run { input with Input.crashes = [] }).Exec.o_schedule in
      List.iter
        (fun crashes ->
          let input = { input with Input.crashes } in
          let label = Input.label input in
          let o = Exec.run input in
          let features, schedule, hints, failure = reference_run input in
          Alcotest.(check (array int)) (label ^ " features") features
            o.Exec.o_features;
          Alcotest.(check int) (label ^ " schedule") schedule o.Exec.o_schedule;
          Alcotest.(check (list int)) (label ^ " hints") hints o.Exec.o_hints;
          Alcotest.(check bool) (label ^ " failure") true
            (failure = o.Exec.o_failure))
        (input.Input.crashes :: crash_lists len))
    (failing_genome
    :: List.map
         (fun (scheme, w) -> Input.make ~scheme (Input.Workload w))
         (Fuzz.pairs_of Fuzz.default_config));
  Alcotest.(check bool) "the genome fails" true
    ((Exec.run failing_genome).Exec.o_failure <> None)

(* Machines booted so far, in full or from a boot image. *)
let boots_total () =
  let b = Engine.boots () in
  b.Engine.full + b.Engine.restored

(* The boots [f] makes: (in full, from a boot image). *)
let boot_delta f =
  let b = Engine.boots () in
  f ();
  let a = Engine.boots () in
  (a.Engine.full - b.Engine.full, a.Engine.restored - b.Engine.restored)

(* A crashed probe's sink sees exactly what a from-boot probe's sink
   sees from the crash point on (the crash, recovery and the final
   flush), and verdict, event and the whole-window reconciliation
   agree, at crash points given unsorted, duplicated, at idle and
   wrapped.  One call restores the arena's boot image once for all of
   its probes. *)
let restored_stream_is_from_boot_suffix () =
  let module Obs = Ido_obs.Obs in
  let strip evs =
    List.map (fun (e : Obs.event) -> (e.Obs.tid, e.Obs.fase, e.Obs.kind)) evs
  in
  let rec from_crash = function
    | (e : Obs.event) :: _ as evs when e.Obs.kind = Obs.Crash -> evs
    | _ :: rest -> from_crash rest
    | [] -> []
  in
  List.iter
    (fun (scheme, workload) ->
      let spec = Engine.defaults ~ops:8 ~scheme ~workload () in
      let len = Array.length (Engine.record spec) in
      let custom = Engine.custom_of_spec spec in
      let arena = Engine.arena custom in
      ignore (Engine.probe ~arena ~obs:(Obs.create ()) custom);
      let at = [ len + 3; len; 0; 5; len / 2; len / 2 ] in
      let sinks = ref [] and probes = ref [] in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s/%s boots" (Scheme.name scheme) workload)
        (0, 1)
        (boot_delta (fun () ->
             probes :=
               Engine.crashed_probes ~arena ~length:len ~at
                 ~obs:(fun () ->
                   let o = Obs.create () in
                   sinks := o :: !sinks;
                   o)
                 ~validate:(fun _ -> Ok ())));
      List.iter2
        (fun (c, restored) (q : Engine.probe) ->
          let index = c mod (len + 1) in
          let label =
            Printf.sprintf "%s/%s@%d" (Scheme.name scheme) workload index
          in
          let boot = Obs.create () in
          let p = Engine.probe ~index ~obs:boot custom in
          Alcotest.(check (option int)) (label ^ " index") (Some index)
            q.Engine.pr_index;
          Alcotest.(check bool) (label ^ " stream") true
            (strip (Obs.events restored) = strip (from_crash (Obs.events boot)));
          Alcotest.(check bool) (label ^ " probe") true
            (p.Engine.pr_event = q.Engine.pr_event
            && p.Engine.pr_verdict = q.Engine.pr_verdict
            && p.Engine.pr_consistency = q.Engine.pr_consistency))
        (List.combine at (List.rev !sinks))
        !probes)
    Scheme.
      [
        (Ido, "queue"); (Justdo, "mlog"); (Atlas, "hmap"); (Mnemosyne, "olist");
        (Nvthreads, "stack"); (Nvml, "objstore"); (Origin, "kvcache50");
      ]

(* A candidate on a new base boots its machine in full for the
   crash-free probe that records the base; with crash points it then
   restores that machine's boot image once for all of them, in range or
   wrapped past the schedule alike. *)
let one_machine_per_candidate () =
  let base = Input.Workload "queue" in
  let len =
    (Exec.run (Input.make ~scheme:Scheme.Justdo base)).Exec.o_schedule
  in
  let boots crashes =
    boot_delta (fun () ->
        ignore (Exec.run (Input.make ~crashes ~scheme:Scheme.Justdo base)))
  in
  Alcotest.(check (pair int int)) "no crash points" (1, 0) (boots []);
  Alcotest.(check (pair int int)) "four in range" (1, 1)
    (boots [ len; 7; 0; 7 ]);
  Alcotest.(check (pair int int)) "one wrapped" (1, 1)
    (boots [ 7; len + 1 + 9 ]);
  Alcotest.(check (pair int int)) "wrapped onto a captured index" (1, 1)
    (boots [ 7; len + 1 + 7 ])

(* ---------- the campaign cache ---------- *)

(* Through a shared cache, every input gives the outcome an uncached
   run gives: the base's first run (which records it), a crash-free
   repeat (which boots nothing), and crash lists in range, wrapped,
   at idle (= the schedule length), duplicated and unsorted, each on
   the recorded base.  Every default pair, and the seed-40 torn-heap
   genome, whose F701 the cache must still find. *)
let cached_matches_uncached () =
  let cache = Exec.cache () in
  List.iter
    (fun (input : Input.t) ->
      let base = { input with Input.crashes = [] } in
      let len = (Exec.run base).Exec.o_schedule in
      let check crashes =
        let input = { input with Input.crashes } in
        let before = boots_total () in
        let o = Exec.run ~cache input in
        let booted = boots_total () - before in
        if o <> Exec.run input then
          Alcotest.failf "%s: cached outcome differs" (Input.label input);
        booted
      in
      ignore (check []);
      Alcotest.(check int)
        (Input.label base ^ " crash-free repeat boots nothing")
        0 (check []);
      List.iter
        (fun crashes -> ignore (check crashes))
        [
          input.Input.crashes;
          [ 3; len / 2 ];
          [ len + 1 + 5; (2 * len) + 2 ];
          [ len ];
          [ 7; 7; len / 3; 7 ];
          [ len - 1; 2; len / 2; 0 ];
        ])
    (failing_genome
    :: List.map
         (fun (scheme, w) -> Input.make ~scheme (Input.Workload w))
         (Fuzz.pairs_of Fuzz.default_config));
  Alcotest.(check (option string))
    "the genome's F701 is found through the cache" (Some "F701")
    (Exec.primary_code (Exec.run ~cache failing_genome))

(* A campaign sets up each (scheme, base) once: later candidates on it
   restore its boot image, and a crash-free repeat boots nothing. *)
let one_full_boot_per_base () =
  let config =
    {
      Fuzz.default_config with
      Fuzz.seed = 5;
      budget = 80;
      schemes = [ Scheme.Justdo; Scheme.Ido ];
      workloads = [ "queue"; "stack" ];
      rediscover = true;
      shrink_budget = 20;
    }
  in
  let before = Engine.boots () in
  ignore (Fuzz.run config);
  let after = Engine.boots () in
  Alcotest.(check int) "one full boot per pair"
    (List.length (Fuzz.pairs_of config))
    (after.Engine.full - before.Engine.full);
  Alcotest.(check bool) "later candidates restore" true
    (after.Engine.restored > before.Engine.restored);
  let cache = Exec.cache () in
  let input = Input.make ~scheme:Scheme.Justdo (Input.Workload "queue") in
  ignore (Exec.run ~cache input);
  Alcotest.(check (pair int int)) "crash-free repeat" (0, 0)
    (boot_delta (fun () -> ignore (Exec.run ~cache input)));
  Alcotest.(check (pair int int)) "crash points on a recorded base" (0, 1)
    (boot_delta (fun () ->
         ignore (Exec.run ~cache { input with Input.crashes = [ 9; 4; 9 ] })))

(* ---------- input codec ---------- *)

let prop_input_json_roundtrip =
  QCheck.Test.make ~name:"input json_fields/of_json is the identity"
    ~count:300 input_arb (fun i ->
      let line = "{" ^ Input.json_fields i ^ "}" in
      let i' = Input.of_json ~fail:(fun m -> Failure m) line in
      i = i')

let prop_base_string_roundtrip =
  QCheck.Test.make ~name:"base_to_string/base_of_string is the identity"
    ~count:300 input_arb (fun i ->
      Input.base_of_string (Input.base_to_string i.Input.base)
      = Some i.Input.base)

let prop_edit_string_roundtrip =
  QCheck.Test.make ~name:"edit codec round-trips"
    ~count:200
    (QCheck.make
       ~print:(fun e -> Mutate.edit_to_string e)
       edit_gen)
    (fun e -> Mutate.edit_of_string (Mutate.edit_to_string e) = Some e)

(* ---------- edits and mutation-corpus ingestion ---------- *)

(* Find a hook deletion on justdo/queue that the linter reports as a
   missing log hook, then round-trip it through [Mutate.ingest] and
   the PR-3 mutant runner. *)
let ingest_caught () =
  let clean = Input.make ~scheme:Scheme.Justdo (Input.Workload "queue") in
  let p = Exec.instrumented clean in
  let hooks = Mutate.hook_count p in
  Alcotest.(check bool) "has hooks" true (hooks > 0);
  let k =
    let rec find k =
      if k >= hooks then Alcotest.fail "no hook deletion yields L201"
      else
        let i =
          Input.make ~edits:[ Mutate.Delete_hook k ] ~scheme:Scheme.Justdo
            (Input.Workload "queue")
        in
        let o = Exec.run i in
        match o.Exec.o_failure with
        | Some f when List.mem "L201" f.Exec.f_codes -> k
        | _ -> find (k + 1)
    in
    find 0
  in
  let m =
    Mutate.ingest ~name:"test-del-hook"
      ~scheme:Scheme.Justdo ~workload:"queue" ~expect:"L201"
      ~edits:[ Mutate.Delete_hook k ] ()
  in
  let o = Ido_check.Lintrun.run_mutant m in
  Alcotest.(check bool) "ingested mutant caught" true o.Ido_check.Lintrun.caught

let mixed_stage_rejected () =
  Alcotest.check_raises "mixed stages"
    (Invalid_argument "Mutate.ingest: edits span both stages")
    (fun () ->
      ignore
        (Mutate.ingest ~name:"x" ~scheme:Scheme.Justdo
           ~workload:"queue" ~expect:"L201"
           ~edits:[ Mutate.Hoist_store; Mutate.Delete_hook 0 ] ()))

(* ---------- shrinking properties ---------- *)

let prop_shrink_candidates_monotone =
  QCheck.Test.make ~name:"shrink candidates strictly decrease size"
    ~count:300 input_arb (fun i ->
      List.for_all
        (fun c -> Input.size c < Input.size i)
        (Shrink.candidates i))

(* Failing inputs for the end-to-end shrink property: random genomes
   with a seeded bug (variant or unlocked tree), evaluated statically,
   so each property case costs one instrument+lint. *)
let failing_input_gen =
  QCheck.Gen.(
    let trees = list_size (int_range 1 4) tree_gen in
    map2
      (fun ts pick ->
        let scheme = Scheme.Justdo in
        match pick mod 3 with
        | 0 ->
            Input.make ~variant:Protocol.Early_publish_justdo ~scheme
              (Input.Random ts)
        | 1 ->
            Input.make ~edits:[ Mutate.Delete_hook (pick mod 8) ] ~scheme
              (Input.Random ts)
        | _ ->
            Input.make ~scheme
              (Input.Random (Input.Unlocked [ Input.Store (3, 7) ] :: ts)))
      trees small_nat)

let prop_shrink_preserves_failure =
  QCheck.Test.make
    ~name:"shrunk reproducer fails with the same primary code, monotonically"
    ~count:25
    (QCheck.make ~print:Input.label failing_input_gen)
    (fun i ->
      let o = Exec.run i in
      match o.Exec.o_failure with
      | None -> QCheck.assume_fail ()
      | Some _ ->
          let budget = 60 in
          let s = Shrink.shrink ~budget o in
          let still = s.Shrink.s_outcome.Exec.o_failure <> None in
          let same_code =
            Exec.primary_code s.Shrink.s_outcome = Exec.primary_code o
          in
          let monotone =
            Input.size s.Shrink.s_input <= Input.size i
          in
          let bounded = s.Shrink.s_runs <= budget in
          still && same_code && monotone && bounded)

(* ---------- campaign determinism ---------- *)

let small_config =
  {
    Fuzz.default_config with
    Fuzz.seed = 5;
    budget = 60;
    schemes = [ Scheme.Justdo ];
    workloads = [ "queue" ];
    shrink_budget = 40;
  }

let campaign_deterministic () =
  let r1 = Fuzz.run ?pool:None small_config in
  let r4 =
    Ido_util.Pool.with_pool 4 (fun pool -> Fuzz.run ~pool small_config)
  in
  Alcotest.(check string) "render identical at -j1 vs -j4" (Fuzz.render r1)
    (Fuzz.render r4);
  Alcotest.(check string) "corpus identical at -j1 vs -j4"
    (Corpus.to_ndjson r1.Fuzz.r_corpus)
    (Corpus.to_ndjson r4.Fuzz.r_corpus);
  Alcotest.(check bool) "campaign found something" true
    (r1.Fuzz.r_findings <> [])

(* ---------- corpus round-trips ---------- *)

let corpus_roundtrip () =
  let r = Fuzz.run ?pool:None small_config in
  let path = Filename.temp_file "ido_fuzz_corpus" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Corpus.save r.Fuzz.r_corpus path;
      let c = Corpus.load path in
      Alcotest.(check string) "load/save byte-identical"
        (Corpus.to_ndjson r.Fuzz.r_corpus)
        (Corpus.to_ndjson c);
      (* every entry replays to the same codes, digest and detail *)
      Alcotest.(check int) "corpus replays faithfully" 0
        (List.length (Corpus.verify c)))

(* A corpus line whose variant names no protocol fault is refused with
   a one-line diagnostic, not linted as the fault-free protocol. *)
let corpus_rejects_unknown_variant () =
  let entry =
    {
      Corpus.e_kind = Corpus.Finding;
      e_input =
        Input.make ~variant:Protocol.Early_publish_justdo ~scheme:Scheme.Justdo
          (Input.Workload "queue");
      e_codes = [ "L301" ];
      e_digest = "";
      e_detail = "";
    }
  in
  let text = Corpus.to_ndjson { Corpus.c_seed = 1; c_opt = false; c_entries = [ entry ] } in
  let field = {|"variant":"early-publish-justdo"|} in
  let rec at i = if String.sub text i (String.length field) = field then i else at (i + 1) in
  let i = at 0 in
  let misspelt =
    String.sub text 0 i ^ {|"variant":"early-publish-justod"|}
    ^ String.sub text (i + String.length field) (String.length text - i - String.length field)
  in
  let path = Filename.temp_file "ido_fuzz_corpus" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc misspelt);
      match Corpus.load path with
      | _ -> Alcotest.fail "a misspelt variant loaded"
      | exception Failure msg ->
          Alcotest.(check string) "diagnostic"
            {|corpus: unknown variant "early-publish-justod"|} msg)

(* [verify] compares whole entries: one entry whose digest or detail
   no longer matches its replay is exactly one mismatch, even though
   its codes still do. *)
let corpus_verify_whole_entries () =
  let r = Fuzz.run ?pool:None small_config in
  let path = Filename.temp_file "ido_fuzz_corpus" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Corpus.save r.Fuzz.r_corpus path;
      let c = Corpus.load path in
      let tamper f =
        let entries =
          List.mapi (fun i e -> if i = 0 then f e else e) c.Corpus.c_entries
        in
        List.length (Corpus.verify { c with Corpus.c_entries = entries })
      in
      Alcotest.(check int) "changed digest" 1
        (tamper (fun e -> { e with Corpus.e_digest = "0000000000000000" }));
      Alcotest.(check int) "changed detail" 1
        (tamper (fun e -> { e with Corpus.e_detail = "tampered" })))

(* A campaign over the optimized pipeline writes ["opt":true] into its
   corpus header (a plain one writes no [opt] at all), and its entries
   replay under the optimizer: every entry reproduces its codes and
   coverage digest. *)
let opt_corpus_replays_optimized () =
  let r =
    Fuzz.run ?pool:None { small_config with Fuzz.opt = true; budget = 40 }
  in
  let header c = List.hd (String.split_on_char '\n' (Corpus.to_ndjson c)) in
  let has_opt c =
    let h = header c in
    let pat = {|"opt":true|} in
    let n = String.length pat in
    List.exists
      (fun i -> String.sub h i n = pat)
      (List.init (String.length h - n + 1) Fun.id)
  in
  Alcotest.(check bool) "header says opt" true (has_opt r.Fuzz.r_corpus);
  Alcotest.(check bool) "a plain header says nothing" false
    (has_opt
       (Fuzz.run ?pool:None { small_config with Fuzz.budget = 10 }).Fuzz
         .r_corpus);
  let path = Filename.temp_file "ido_fuzz_opt" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Corpus.save r.Fuzz.r_corpus path;
      let c = Corpus.load path in
      Alcotest.(check bool) "loads as opt" true c.Corpus.c_opt;
      Alcotest.(check (list string))
        "verifies clean" []
        (List.map snd (Corpus.verify c)))

(* The workload-base findings that carry seeded edits or a variant, as
   mutation-corpus entries named "fuzz-<n>-<code>" and expecting the
   finding's primary code.  Random-genome findings have no registry
   workload and are skipped. *)
let to_mutants (c : Corpus.t) =
  let n = ref 0 in
  List.filter_map
    (fun (e : Corpus.entry) ->
      let i = e.Corpus.e_input in
      match (e.Corpus.e_kind, i.Input.base, e.Corpus.e_codes) with
      | Corpus.Finding, Input.Workload workload, expect :: _
        when i.Input.edits <> [] || i.Input.variant <> None ->
          incr n;
          Some
            (Mutate.ingest
               ~name:(Printf.sprintf "fuzz-%d-%s" !n expect)
               ~scheme:i.Input.scheme ~workload ~expect ?variant:i.Input.variant
               ~edits:i.Input.edits ())
      | _ -> None)
    c.Corpus.c_entries

let corpus_feeds_mutation_corpus () =
  let r = Fuzz.run ?pool:None small_config in
  let mutants = to_mutants r.Fuzz.r_corpus in
  Alcotest.(check bool) "some findings ingest as mutants" true (mutants <> []);
  List.iter
    (fun m ->
      let o = Ido_check.Lintrun.run_mutant m in
      Alcotest.(check bool)
        (Printf.sprintf "ingested %s caught" m.Mutate.name)
        true o.Ido_check.Lintrun.caught)
    mutants

(* A workload-base corpus finding round-trips through the PR-2 trace
   machinery: record the engine run it names, save, load, replay. *)
let corpus_entry_traces () =
  let spec = Engine.defaults ~scheme:Scheme.Justdo ~workload:"queue" () in
  let tr = Engine.run_traced ~index:30 spec in
  let path = Filename.temp_file "ido_fuzz_trace" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ido_check.Trace.save tr path;
      let s = Ido_check.Trace.load path in
      let tr' = Ido_check.Trace.replay s in
      Alcotest.(check string) "replay digest matches" s.Ido_check.Trace.digest
        tr'.Engine.t_digest;
      let path2 = path ^ ".2" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
        (fun () ->
          Ido_check.Trace.save tr' path2;
          let read p =
            let ic = open_in p in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Alcotest.(check string) "re-save byte-identical" (read path)
            (read path2)))

(* ---------- rediscovery (bounded, one pair) ---------- *)

let rediscover_pair () =
  let config =
    {
      Fuzz.seed = 1;
      budget = 120;
      schemes = [ Scheme.Justdo ];
      workloads = [ "queue" ];
      rediscover = true;
      shrink_budget = 40;
      opt = false;
    }
  in
  let r = Fuzz.run ?pool:None config in
  let expected_here =
    List.filter
      (fun (m : Mutate.t) ->
        m.Mutate.scheme = Scheme.Justdo && m.Mutate.workload = "queue")
      Mutate.corpus
  in
  Alcotest.(check bool) "pair has seeded mutants" true (expected_here <> []);
  List.iter
    (fun (m : Mutate.t) ->
      let found =
        try List.assoc m.Mutate.name r.Fuzz.r_rediscovered
        with Not_found -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "re-found %s" m.Mutate.name)
        true found)
    expected_here

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "coverage features are deterministic" `Quick
          cov_deterministic;
        Alcotest.test_case "coverage seen-set counts novelty" `Quick
          cov_seen_set;
        Alcotest.test_case "static features keyed on codes" `Quick cov_static;
        qtest prop_input_json_roundtrip;
        qtest prop_base_string_roundtrip;
        qtest prop_edit_string_roundtrip;
        Alcotest.test_case "indexed edit ingests into mutation corpus" `Quick
          ingest_caught;
        Alcotest.test_case "ingest rejects mixed-stage edits" `Quick
          mixed_stage_rejected;
        qtest prop_shrink_candidates_monotone;
        qtest prop_shrink_preserves_failure;
        Alcotest.test_case "campaign byte-identical across pool sizes" `Slow
          campaign_deterministic;
        Alcotest.test_case "corpus NDJSON round-trips and replays" `Slow
          corpus_roundtrip;
        Alcotest.test_case "corpus findings feed the mutation corpus" `Slow
          corpus_feeds_mutation_corpus;
        Alcotest.test_case "workload finding round-trips via trace" `Quick
          corpus_entry_traces;
        Alcotest.test_case "rediscovers the pair's seeded mutants" `Slow
          rediscover_pair;
        qtest prop_streamed_coverage_matches_reference;
        Alcotest.test_case "schedule derived without a recording run" `Quick
          schedule_without_recording;
        Alcotest.test_case "restored crash probes = from-boot reference"
          `Quick restored_matches_from_boot;
        Alcotest.test_case "one machine per in-range candidate" `Quick
          one_machine_per_candidate;
        Alcotest.test_case "restored sink stream = from-boot suffix" `Quick
          restored_stream_is_from_boot_suffix;
        Alcotest.test_case "cached runs = uncached runs" `Quick
          cached_matches_uncached;
        Alcotest.test_case "one full boot per (scheme, base)" `Quick
          one_full_boot_per_base;
        Alcotest.test_case "an --opt corpus replays optimized" `Slow
          opt_corpus_replays_optimized;
        Alcotest.test_case "verify compares whole entries" `Slow
          corpus_verify_whole_entries;
        Alcotest.test_case "corpus rejects an unknown variant" `Quick
          corpus_rejects_unknown_variant;
      ] );
  ]
