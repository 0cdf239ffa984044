open Ido_util
open Ido_nvm
open Ido_region
open Ido_runtime

let qtest = QCheck_alcotest.to_alcotest

let mk () =
  let pm = Pmem.create ~rng:(Rng.create 1) (1 lsl 18) in
  let region = Region.create pm in
  let w = Pwriter.create pm Latency.default in
  (pm, region, w)

(* ------------------------------------------------------------------ *)
(* Pwriter cost accounting *)

let test_pwriter_costs () =
  let pm, _, _ = mk () in
  let lat = Latency.default in
  let w = Pwriter.create pm lat in
  Pwriter.store w 0 1L;
  Alcotest.(check int) "store cost" lat.Latency.mem (Pwriter.take_cost w);
  Pwriter.clwb w 0;
  Alcotest.(check int) "clwb issue" lat.Latency.clwb_issue (Pwriter.take_cost w);
  Alcotest.(check int) "pending" 1 (Pwriter.pending w);
  Pwriter.fence w;
  Alcotest.(check int) "fence with one pending"
    (lat.Latency.fence_base + lat.Latency.persist_wait)
    (Pwriter.take_cost w);
  Pwriter.fence w;
  Alcotest.(check int) "empty fence" lat.Latency.fence_base (Pwriter.take_cost w)

let test_pwriter_coalescing () =
  let pm, _, _ = mk () in
  let w = Pwriter.create pm Latency.default in
  (* Eight dirty words in one line: a single write-back (Sec. IV-B). *)
  List.iter (fun a -> Pwriter.store w a 1L) [ 64; 65; 66; 67; 68; 69; 70; 71 ];
  Pwriter.clwb_lines w [ 64; 65; 66; 67; 68; 69; 70; 71 ];
  Alcotest.(check int) "one line" 1 (Pwriter.pending w);
  Pwriter.fence w;
  Pwriter.store w 64 2L;
  Pwriter.store w 128 2L;
  Pwriter.clwb_lines w [ 64; 128 ];
  Alcotest.(check int) "two lines" 2 (Pwriter.pending w);
  Pwriter.fence w;
  (* Repeats are dropped and the rest keep first-occurrence order:
     callers rely on it for write-ahead sequencing. *)
  List.iter (fun a -> Pwriter.store w a 3L) [ 0; 64; 128 ];
  let order = ref [] in
  Pmem.set_event_hook pm
    (Some (function Ido_obs.Obs.Flush a -> order := a :: !order | _ -> ()));
  let clwbs = (Pmem.counters pm).Pmem.clwbs in
  Pwriter.clwb_lines w [ 129; 64; 130; 65; 0; 128 ];
  Alcotest.(check (list int)) "first-occurrence order" [ 128; 64; 0 ]
    (List.rev !order);
  Alcotest.(check int) "one clwb per line" 3
    ((Pmem.counters pm).Pmem.clwbs - clwbs)

let test_pwriter_clean_clwb_free () =
  (* Regression (accounting reconciliation): a clwb that hits a clean
     line performs no write-back, so it must charge nothing and the
     following fence must cost fence_base only — previously the issue
     cost and the fence's drain cost were charged anyway. *)
  let pm, _, _ = mk () in
  let lat = Latency.default in
  let w = Pwriter.create pm lat in
  Pwriter.clwb w 0;
  Alcotest.(check int) "clean clwb free" 0 (Pwriter.take_cost w);
  Alcotest.(check int) "nothing pending" 0 (Pwriter.pending w);
  Pwriter.fence w;
  Alcotest.(check int) "fence at base cost" lat.Latency.fence_base
    (Pwriter.take_cost w);
  (* A duplicate clwb of an already-written-back line is also free. *)
  Pwriter.store w 0 1L;
  ignore (Pwriter.take_cost w);
  Pwriter.clwb w 0;
  Pwriter.clwb w 0;
  Alcotest.(check int) "one pending, not two" 1 (Pwriter.pending w);
  Alcotest.(check int) "one issue charged" lat.Latency.clwb_issue
    (Pwriter.take_cost w);
  Pwriter.fence w;
  Alcotest.(check int) "fence drains one"
    (Latency.fence_cost lat ~pending:1)
    (Pwriter.take_cost w)

let test_pwriter_fences_independent () =
  let pm, _, _ = mk () in
  let w1 = Pwriter.create pm Latency.default in
  let w2 = Pwriter.create pm Latency.default in
  Pwriter.store w1 0 1L;
  Pwriter.clwb w1 0;
  (* w2's fence must not pay for w1's pending write-back. *)
  ignore (Pwriter.take_cost w2);
  Pwriter.fence w2;
  Alcotest.(check int) "other writer unaffected"
    Latency.default.Latency.fence_base (Pwriter.take_cost w2)

let test_latency_knob () =
  let l = Latency.with_nvm_extra Latency.default 500 in
  Alcotest.(check int) "knob set" 500 l.Latency.nvm_extra;
  Alcotest.(check int) "baseline zero" 0 Latency.default.Latency.nvm_extra

(* ------------------------------------------------------------------ *)
(* iDO log *)

let test_ido_log_pc_epoch () =
  let pm, region, w = mk () in
  let node = Ido_log.create w region ~tid:3 ~nregs:8 in
  Alcotest.(check int) "tid" 3 (Lognode.tid pm node);
  Alcotest.(check int) "kind" Lognode.kind_ido (Lognode.kind pm node);
  Alcotest.(check int) "pc initially none" 0 (Ido_log.recovery_pc pm node);
  Ido_log.set_recovery_pc w node ~epoch:5 1234;
  Pwriter.fence w;
  Alcotest.(check int) "pc" 1234 (Ido_log.recovery_pc pm node);
  Alcotest.(check int) "epoch" 5 (Ido_log.recovery_epoch pm node);
  Ido_log.set_recovery_pc w node ~epoch:9 0;
  Alcotest.(check int) "cleared" 0 (Ido_log.recovery_pc pm node)

let prop_pc_epoch_roundtrip =
  QCheck.Test.make ~name:"pc/epoch word packing roundtrips" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound Ido_log.epoch_mask))
    (fun (pc, epoch) ->
      QCheck.assume (pc > 0);
      let pm, region, w = mk () in
      let node = Ido_log.create w region ~tid:0 ~nregs:2 in
      Ido_log.set_recovery_pc w node ~epoch pc;
      Ido_log.recovery_pc pm node = pc && Ido_log.recovery_epoch pm node = epoch)

let test_ido_log_regs () =
  let pm, region, w = mk () in
  let node = Ido_log.create w region ~tid:0 ~nregs:16 in
  Ido_log.write_out_regs w node [ (2, 22L); (7, 77L); (15, 155L) ];
  Pwriter.fence w;
  Alcotest.(check int64) "slot 2" 22L (Ido_log.read_reg pm node 2);
  Alcotest.(check int64) "slot 7" 77L (Ido_log.read_reg pm node 7);
  let all = Ido_log.read_all_regs pm node in
  Alcotest.(check int) "sized by nregs" 16 (Array.length all);
  Alcotest.(check int64) "slot 15 via array" 155L all.(15)

let test_ido_log_lock_array () =
  let pm, region, w = mk () in
  let node = Ido_log.create w region ~tid:0 ~nregs:4 in
  Ido_log.record_acquire w node ~holder:1000 ~epoch:1;
  Ido_log.record_acquire w node ~holder:2000 ~epoch:2;
  Alcotest.(check (list (pair int int))) "both held"
    [ (1000, 1); (2000, 2) ]
    (Ido_log.held_locks pm node);
  Ido_log.record_release w node ~holder:1000;
  Alcotest.(check (list (pair int int))) "one left" [ (2000, 2) ]
    (Ido_log.held_locks pm node);
  (* Releasing an absent holder must be a harmless no-op. *)
  Ido_log.record_release w node ~holder:1000;
  Alcotest.(check int) "still one" 1 (List.length (Ido_log.held_locks pm node))

let test_ido_log_sim_stack () =
  let pm, region, w = mk () in
  let node = Ido_log.create w region ~tid:0 ~nregs:4 in
  Ido_log.set_sim_stack pm node ~base:512 ~sp:17;
  Alcotest.(check (pair int int)) "roundtrip" (512, 17) (Ido_log.sim_stack pm node)

(* ------------------------------------------------------------------ *)
(* JUSTDO log *)

let test_justdo_log () =
  let pm, region, w = mk () in
  let node = Justdo_log.create w region ~tid:1 ~nregs:4 in
  Alcotest.(check bool) "not armed" false (Justdo_log.armed pm node);
  Justdo_log.log_store w node ~pc:77 ~addr:4000 ~value:42L;
  Alcotest.(check bool) "armed" true (Justdo_log.armed pm node);
  Alcotest.(check (triple int int int64)) "entry" (77, 4000, 42L)
    (let a, b, c = Justdo_log.entry pm node in
     (a, b, c));
  let regs = Bytes.create 32 in
  List.iteri (fun r v -> Bytes.set_int64_ne regs (8 * r) v) [ 1L; 2L; 3L; 4L ];
  Justdo_log.snapshot_regs pm node regs;
  Alcotest.(check int64) "snapshot" 3L (Justdo_log.read_all_regs pm node).(2);
  Justdo_log.clear w node;
  Alcotest.(check bool) "cleared" false (Justdo_log.armed pm node)

let test_justdo_log_survives_crash () =
  let pm, region, w = mk () in
  let node = Justdo_log.create w region ~tid:1 ~nregs:2 in
  Justdo_log.log_store w node ~pc:5 ~addr:100 ~value:9L;
  Pmem.crash pm;
  Alcotest.(check bool) "armed after crash" true (Justdo_log.armed pm node)

let test_justdo_two_fence_locks () =
  let pm, region, w = mk () in
  let node = Justdo_log.create w region ~tid:1 ~nregs:2 in
  let before = (Pmem.counters pm).Pmem.fences in
  Justdo_log.record_acquire w node ~holder:123;
  let after = (Pmem.counters pm).Pmem.fences in
  Alcotest.(check int) "two fences per acquire (intention + ownership)" 2
    (after - before);
  Alcotest.(check (list int)) "held" [ 123 ] (Justdo_log.held_locks pm node);
  Justdo_log.record_release w node ~holder:123;
  Alcotest.(check (list int)) "released" [] (Justdo_log.held_locks pm node)

(* A release writes back the line of the slot it cleared, not slot 0's.
   Holders are distinctive values, so each slot is found by scanning
   the node for its holder. *)
let test_justdo_release_writes_back_slot () =
  let pm, region, w = mk () in
  let node = Justdo_log.create w region ~tid:1 ~nregs:2 in
  let holder i = 1000 + i in
  let slot_of i =
    let rec find a = if Pmem.load pm a = Int64.of_int (holder i) then a else find (a + 1) in
    find node
  in
  let line a = a / Pmem.words_per_line in
  Justdo_log.record_acquire w node ~holder:(holder 0);
  let slot0 = slot_of 0 in
  (* Take locks until one's slot lies on another line than slot 0's. *)
  let rec take i =
    Justdo_log.record_acquire w node ~holder:(holder i);
    if line (slot_of i) <> line slot0 then i else take (i + 1)
  in
  let i = take 1 in
  let slot = slot_of i in
  Justdo_log.record_release w node ~holder:(holder i);
  Alcotest.(check bool) "the cleared slot's line is clean" false (Pmem.is_dirty pm slot);
  Alcotest.(check (list int)) "the others still held" (List.init i holder)
    (Justdo_log.held_locks pm node)

(* ------------------------------------------------------------------ *)
(* UNDO log *)

let test_undo_log_roundtrip () =
  let pm, region, w = mk () in
  let node = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64 in
  Undo_log.append w node Undo_log.Fase_begin ~a:0L ~b:0L ~seq:1;
  Undo_log.log_write w node ~addr:500 ~old:7L ~seq:2;
  Undo_log.append w node Undo_log.Fase_end ~a:0L ~b:0L ~seq:3;
  let records = Undo_log.records pm node in
  Alcotest.(check int) "three records" 3 (List.length records);
  (match records with
  | [ b0; wr; e0 ] ->
      Alcotest.(check bool) "begin" true (b0.Undo_log.tag = Undo_log.Fase_begin);
      Alcotest.(check int64) "write addr" 500L wr.Undo_log.a;
      Alcotest.(check int64) "write old" 7L wr.Undo_log.b;
      Alcotest.(check int) "seq" 2 wr.Undo_log.seq;
      Alcotest.(check bool) "end" true (e0.Undo_log.tag = Undo_log.Fase_end)
  | _ -> Alcotest.fail "bad records");
  Alcotest.(check bool) "not in fase" false (Undo_log.in_fase pm node);
  Alcotest.(check int) "total" 3 (Undo_log.total pm node);
  Undo_log.reset w node;
  Alcotest.(check int) "reset keeps total count at zero" 0
    (List.length (Undo_log.records pm node))

let test_undo_log_open_fase () =
  let pm, region, w = mk () in
  let node = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64 in
  Undo_log.append w node Undo_log.Fase_begin ~a:0L ~b:0L ~seq:1;
  Undo_log.log_write w node ~addr:1 ~old:0L ~seq:2;
  Alcotest.(check bool) "open fase detected" true (Undo_log.in_fase pm node)

let test_undo_log_wrap () =
  let pm, region, w = mk () in
  let node = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:8 in
  for i = 1 to 20 do
    Undo_log.log_write w node ~addr:i ~old:(Int64.of_int i) ~seq:i
  done;
  let records = Undo_log.records pm node in
  Alcotest.(check int) "ring keeps the cap" 8 (List.length records);
  Alcotest.(check int) "total counts everything" 20 (Undo_log.total pm node);
  (* The survivors are the newest, in chronological order. *)
  Alcotest.(check (list int)) "newest 8"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun r -> r.Undo_log.seq) records)

let test_undo_log_metadata_durable () =
  (* The regression behind Atlas's objstore bug: head and total must
     both persist with each append, even when they straddle lines. *)
  let pm, region, w = mk () in
  let node = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64 in
  Undo_log.append w node Undo_log.Fase_begin ~a:0L ~b:0L ~seq:1;
  for i = 2 to 11 do
    Undo_log.log_write w node ~addr:i ~old:1L ~seq:i
  done;
  Pmem.crash pm;
  Alcotest.(check int) "all records visible after crash" 11
    (List.length (Undo_log.records pm node));
  Alcotest.(check bool) "open fase visible after crash" true
    (Undo_log.in_fase pm node)

let prop_undo_records_roundtrip =
  QCheck.Test.make ~name:"undo records roundtrip in order" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 1000) (int_bound 9)))
    (fun writes ->
      let pm, region, w = mk () in
      let node =
        Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64
      in
      List.iteri
        (fun i (addr, old) ->
          Undo_log.log_write w node ~addr ~old:(Int64.of_int old) ~seq:i)
        writes;
      let got =
        List.map
          (fun r -> (Int64.to_int r.Undo_log.a, Int64.to_int r.Undo_log.b))
          (Undo_log.records pm node)
      in
      got = writes)

(* ------------------------------------------------------------------ *)
(* Atlas recovery: rollback with happens-before propagation *)

(* Atlas's rollback, as recovery runs it. *)
let atlas_recover w region =
  match (Protocol.make Scheme.Atlas).recovery with
  | Protocol.Rollback roll_back -> roll_back ~step:ignore w region
  | Protocol.No_recovery | Protocol.Resume _ -> Alcotest.fail "Atlas recovery is a rollback"

let test_atlas_rollback_propagates () =
  let pm, region, w = mk () in
  (* Thread A: begins a FASE, writes addr 100 (old 0), releases lock 9
     mid-FASE (hand-over-hand), keeps running -> crash (no Fase_end).
     Thread B: acquires lock 9 after A's release, writes addr 200
     (old 0), completes.  Atlas must roll back B too. *)
  let a = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64 in
  let b = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:1 ~cap_records:64 in
  Undo_log.append w a Undo_log.Fase_begin ~a:0L ~b:0L ~seq:1;
  Undo_log.log_write w a ~addr:100 ~old:0L ~seq:2;
  Pwriter.store w 100 111L;
  Undo_log.append w a Undo_log.Release ~a:9L ~b:0L ~seq:3;
  Undo_log.append w b Undo_log.Fase_begin ~a:0L ~b:0L ~seq:4;
  Undo_log.append w b Undo_log.Acquire ~a:9L ~b:0L ~seq:5;
  Undo_log.log_write w b ~addr:200 ~old:0L ~seq:6;
  Pwriter.store w 200 222L;
  Undo_log.append w b Undo_log.Fase_end ~a:0L ~b:0L ~seq:7;
  let st = atlas_recover w region in
  Alcotest.(check int) "both FASEs rolled back" 2 st.Protocol.fases_rolled_back;
  Alcotest.(check int) "both writes undone" 2 st.Protocol.writes_undone;
  Alcotest.(check int64) "A's write reverted" 0L (Pmem.load pm 100);
  Alcotest.(check int64) "B's write reverted" 0L (Pmem.load pm 200)

let test_atlas_independent_fase_survives () =
  let pm, region, w = mk () in
  let a = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64 in
  let b = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:1 ~cap_records:64 in
  (* A crashes mid-FASE on lock 9; B completed on unrelated lock 8. *)
  Undo_log.append w a Undo_log.Fase_begin ~a:0L ~b:0L ~seq:1;
  Undo_log.append w a Undo_log.Acquire ~a:9L ~b:0L ~seq:2;
  Undo_log.log_write w a ~addr:100 ~old:0L ~seq:3;
  Pwriter.store w 100 111L;
  Undo_log.append w b Undo_log.Fase_begin ~a:0L ~b:0L ~seq:4;
  Undo_log.append w b Undo_log.Acquire ~a:8L ~b:0L ~seq:5;
  Undo_log.log_write w b ~addr:200 ~old:0L ~seq:6;
  Pwriter.store w 200 222L;
  Undo_log.append w b Undo_log.Release ~a:8L ~b:0L ~seq:7;
  Undo_log.append w b Undo_log.Fase_end ~a:0L ~b:0L ~seq:8;
  let st = atlas_recover w region in
  Alcotest.(check int) "only A rolled back" 1 st.Protocol.fases_rolled_back;
  Alcotest.(check int64) "A reverted" 0L (Pmem.load pm 100);
  Alcotest.(check int64) "B preserved" 222L (Pmem.load pm 200)

let test_atlas_undo_order () =
  (* Two writes to the same address in one interrupted FASE must be
     undone newest-first, restoring the oldest value. *)
  let pm, region, w = mk () in
  let a = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:64 in
  Undo_log.append w a Undo_log.Fase_begin ~a:0L ~b:0L ~seq:1;
  Undo_log.log_write w a ~addr:100 ~old:5L ~seq:2;
  Pwriter.store w 100 10L;
  Undo_log.log_write w a ~addr:100 ~old:10L ~seq:3;
  Pwriter.store w 100 20L;
  ignore (atlas_recover w region);
  Alcotest.(check int64) "original value restored" 5L (Pmem.load pm 100)

(* The list-based undo recovery that {!Atlas_recovery} replaced, kept
   as the reference its flat arrays are checked against: records read
   into a list, grouped into per-FASE tuple lists, the closure over a
   hashed per-lock index, the undo set concatenated and sorted. *)
module Reference = struct
  type fase = {
    mutable complete : bool;
    mutable writes : (int * int64 * int) list;  (* addr, old, seq; newest first *)
    mutable acquires : (int64 * int) list;  (* lock holder, seq *)
    mutable releases : (int64 * int) list;
  }

  let parse_fases records =
    let fases = ref [] in
    let current = ref None in
    List.iter
      (fun (r : Undo_log.record) ->
        match (r.tag, !current) with
        | Undo_log.Fase_begin, _ ->
            let f = { complete = false; writes = []; acquires = []; releases = [] } in
            current := Some f;
            fases := f :: !fases
        | Undo_log.Fase_end, Some f ->
            f.complete <- true;
            current := None
        | Undo_log.Write, Some f -> f.writes <- (Int64.to_int r.a, r.b, r.seq) :: f.writes
        | Undo_log.Acquire, Some f -> f.acquires <- (r.a, r.seq) :: f.acquires
        | Undo_log.Release, Some f -> f.releases <- (r.a, r.seq) :: f.releases
        | _, None -> ())
      records;
    List.rev !fases

  module Lock_tbl = Hashtbl.Make (struct
    type t = int64

    let equal = Int64.equal
    let hash l = (Int64.to_int l * 0x2545F4914F6CDD1D) lsr 17
  end)

  let rollback_set fases =
    let pending = Lock_tbl.create 16 in
    Array.iteri
      (fun fi f ->
        List.iter
          (fun (lock, s) ->
            match Lock_tbl.find pending lock with
            | l -> l := (s, fi) :: !l
            | exception Not_found -> Lock_tbl.add pending lock (ref [ (s, fi) ]))
          f.acquires)
      fases;
    Lock_tbl.iter
      (fun _ l -> l := List.sort (fun (s1, _) (s2, _) -> compare s2 s1) !l)
      pending;
    let rolled = Array.map (fun f -> not f.complete) fases in
    let work = Stack.create () in
    Array.iteri (fun i r -> if r then Stack.push i work) rolled;
    while not (Stack.is_empty work) do
      List.iter
        (fun (lock, s') ->
          let rec mark = function
            | (s, fi) :: rest when s >= s' ->
                if not rolled.(fi) then begin
                  rolled.(fi) <- true;
                  Stack.push fi work
                end;
                mark rest
            | rest -> rest
          in
          match Lock_tbl.find_opt pending lock with
          | Some l -> l := mark !l
          | None -> ())
        fases.(Stack.pop work).releases
    done;
    rolled

  let undo w writes =
    let writes = List.sort (fun (_, _, s1) (_, _, s2) -> compare s2 s1) writes in
    List.iter
      (fun (addr, old, _) ->
        Pwriter.store w addr old;
        Pwriter.clwb w addr)
      writes;
    List.length writes

  (* The simulated time spent is left in [w], as in recovery. *)
  let recover_atlas w region : Protocol.counts =
    let pm = Pwriter.pmem w in
    let nodes = ref [] in
    Lognode.iter pm region (fun a ->
        if Lognode.kind pm a = Lognode.kind_atlas then nodes := a :: !nodes);
    let all_fases = ref [] and records_scanned = ref 0 in
    List.iter
      (fun node ->
        let records = Undo_log.records pm node in
        Pwriter.add_cost w (List.length records * (Pwriter.latency w).Latency.mem * 4);
        records_scanned := !records_scanned + List.length records;
        all_fases := parse_fases records @ !all_fases)
      !nodes;
    let fases = Array.of_list !all_fases in
    let rolled = rollback_set fases in
    let writes = ref [] in
    Array.iteri (fun i f -> if rolled.(i) then writes := f.writes @ !writes) fases;
    let undone = undo w !writes in
    if undone > 0 then Pwriter.fence w;
    List.iter (fun node -> Undo_log.reset w node) !nodes;
    {
      Protocol.zero with
      records_scanned = !records_scanned;
      fases_rolled_back = Array.fold_left (fun n b -> if b then n + 1 else n) 0 rolled;
      writes_undone = undone;
    }

  (* NVML's rollback: returns (records scanned, writes undone,
     regions rolled back). *)
  let recover_nvml w region =
    let pm = Pwriter.pmem w in
    let undone = ref 0 and scanned = ref 0 and rolled = ref 0 in
    Lognode.iter pm region (fun node ->
        if Lognode.kind pm node = Lognode.kind_nvml then begin
          let records = Undo_log.records pm node in
          scanned := !scanned + List.length records;
          if Undo_log.in_fase pm node then begin
            incr rolled;
            undone :=
              !undone
              + undo w
                  (List.filter_map
                     (fun (r : Undo_log.record) ->
                       if r.tag = Undo_log.Write then Some (Int64.to_int r.a, r.b, r.seq)
                       else None)
                     records);
            Pwriter.fence w;
            (* The recovery step it reports names the thread: one load. *)
            ignore (Lognode.tid pm node : int)
          end;
          Undo_log.reset w node
        end);
    (!scanned, !undone, !rolled)
end

(* The closure as first written, kept as the reference: sweep every
   (rolled-back FASE, release, FASE) triple until nothing changes. *)
let pairwise_rollback (fases : Reference.fase array) =
  let rolled = Array.map (fun f -> not f.Reference.complete) fases in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun gi (g : Reference.fase) ->
        if rolled.(gi) then
          List.iter
            (fun (lock, s') ->
              Array.iteri
                (fun fi (f : Reference.fase) ->
                  if
                    (not rolled.(fi)) && fi <> gi
                    && List.exists (fun (l, s) -> l = lock && s >= s') f.acquires
                  then begin
                    rolled.(fi) <- true;
                    changed := true
                  end)
                fases)
            g.releases)
      fases
  done;
  rolled

(* Hand-built per-thread undo logs.  A fixed prefix makes a chain of
   three: T0's FASE is interrupted after releasing lock 0 to T1, whose
   completed FASE releases lock 1 to T2.  Random records follow on
   T1..Tn-1, interleaved record by record, each thread's last FASE
   possibly left open by the crash.  Lock 2's word is [Int64.min_int],
   whose low 63 bits are lock 0's: a closure that narrowed lock words
   to [int] would merge the two locks. *)
let undo_logs (nthreads, steps) =
  let logs = Array.make nthreads [] in
  let open_fase = Array.make nthreads false in
  let seq = ref 0 in
  let lock_word l = if l = 2 then Int64.min_int else Int64.of_int l in
  let emit t tag a =
    incr seq;
    logs.(t) <- { Undo_log.tag; a; b = 0L; seq = !seq } :: logs.(t)
  in
  let fase t body =
    emit t Undo_log.Fase_begin 0L;
    List.iter (fun (tag, l) -> emit t tag (lock_word l)) body
  in
  fase 0 Undo_log.[ (Acquire, 0); (Write, 100); (Release, 0) ];
  fase 1
    Undo_log.
      [ (Acquire, 0); (Acquire, 1); (Write, 101); (Release, 0); (Release, 1);
        (Fase_end, 0) ];
  fase 2 Undo_log.[ (Acquire, 1); (Write, 102); (Release, 1); (Fase_end, 0) ];
  List.iter
    (fun (t, action, lock) ->
      let t = 1 + (t mod (nthreads - 1)) in
      if not open_fase.(t) then begin
        emit t Undo_log.Fase_begin 0L;
        open_fase.(t) <- true
      end
      else if action < 3 then emit t Undo_log.Acquire (lock_word lock)
      else if action < 6 then emit t Undo_log.Release (lock_word lock)
      else if action < 8 then emit t Undo_log.Write (Int64.of_int (200 + lock))
      else begin
        emit t Undo_log.Fase_end 0L;
        open_fase.(t) <- false
      end)
    steps;
  Array.map List.rev logs

(* The same logs written to persistent undo rings. *)
let write_logs logs =
  let pm, region, w = mk () in
  let nodes =
    Array.to_list
      (Array.mapi
         (fun tid records ->
           let node =
             Undo_log.create w region ~kind:Lognode.kind_atlas ~tid ~cap_records:256
           in
           List.iter
             (fun (r : Undo_log.record) ->
               Undo_log.append w node r.tag ~a:r.a ~b:r.b ~seq:r.seq)
             records;
           node)
         logs)
  in
  (pm, nodes)

let prop_atlas_closure_matches_pairwise =
  QCheck.Test.make ~name:"indexed rollback closure = pairwise fixpoint"
    ~count:300
    QCheck.(
      pair (int_range 3 5)
        (list_of_size Gen.(int_range 0 80)
           (triple (int_bound 3) (int_bound 9) (int_bound 2))))
    (fun case ->
      let logs = undo_logs case in
      let fases =
        logs |> Array.to_list |> List.concat_map Reference.parse_fases |> Array.of_list
      in
      let pm, nodes = write_logs logs in
      let rolled = Atlas_recovery.rollback_set (Atlas_recovery.scan pm nodes) in
      (* T0's interrupted FASE and the two it reaches are always in. *)
      Array.fold_left (fun n r -> if r then n + 1 else n) 0 rolled >= 3
      && rolled = pairwise_rollback fases
      && rolled = Reference.rollback_set fases)

(* ------------------------------------------------------------------ *)
(* REDO log *)

let test_redo_log () =
  let pm, region, w = mk () in
  let node = Redo_log.create w region ~tid:0 ~cap_entries:16 in
  Redo_log.begin_txn w node;
  Alcotest.(check bool) "filling" true (Redo_log.status pm node = Redo_log.Filling);
  Redo_log.append w node ~addr:100 ~value:1L;
  Redo_log.append w node ~addr:101 ~value:2L;
  Alcotest.(check int) "count" 2 (Redo_log.count pm node);
  Alcotest.(check (pair int int64)) "entry" (101, 2L) (Redo_log.entry pm node 1);
  Redo_log.persist_entries w node;
  Pwriter.fence w;
  Redo_log.persist_status w node Redo_log.Committed;
  Redo_log.apply w node;
  Alcotest.(check int64) "applied" 1L (Pmem.load pm 100);
  Alcotest.(check int64) "applied 2" 2L (Pmem.load pm 101);
  Redo_log.persist_status w node Redo_log.Idle;
  Alcotest.(check bool) "idle" true (Redo_log.status pm node = Redo_log.Idle)

let test_redo_overflow () =
  let _, region, w = mk () in
  let node = Redo_log.create w region ~tid:0 ~cap_entries:2 in
  Redo_log.begin_txn w node;
  Redo_log.append w node ~addr:1 ~value:1L;
  Redo_log.append w node ~addr:2 ~value:1L;
  Alcotest.check_raises "overflow"
    (Lognode.Log_overflow
       { Lognode.scheme = "mnemosyne"; tid = 0; log = "write_set"; capacity = 2 })
    (fun () -> Redo_log.append w node ~addr:3 ~value:1L)

(* ------------------------------------------------------------------ *)
(* Page log *)

let test_page_log_cow () =
  let pm, region, w = mk () in
  let node = Page_log.create w region ~tid:0 ~cap_pages:8 in
  (* Prepare master data on one page. *)
  let page = 100 in
  let base = page * Page_log.page_words in
  Pmem.poke pm base 7L;
  Pmem.poke pm (base + 1) 8L;
  Page_log.begin_fase w node ~seq:1;
  let i = Page_log.log_page w node ~page in
  (* The copy carries the master's contents. *)
  Alcotest.(check int64) "copy word 0" 7L
    (Pmem.load pm (Page_log.copy_word_addr node i ~off:0));
  (* Write through the copy; master untouched until commit. *)
  Pwriter.store w (Page_log.copy_word_addr node i ~off:1) 99L;
  Page_log.mark_dirty w node i ~off:1;
  Alcotest.(check int64) "master clean" 8L (Pmem.load pm (base + 1));
  Page_log.commit w node;
  Alcotest.(check int64) "dirty word applied" 99L (Pmem.load pm (base + 1));
  Alcotest.(check int64) "clean word untouched" 7L (Pmem.load pm base);
  Alcotest.(check bool) "idle after commit" false (Page_log.active pm node)

let test_page_log_discard () =
  let pm, region, w = mk () in
  let node = Page_log.create w region ~tid:0 ~cap_pages:4 in
  let page = 50 in
  let base = page * Page_log.page_words in
  Pmem.poke pm base 5L;
  Page_log.begin_fase w node ~seq:1;
  let i = Page_log.log_page w node ~page in
  Pwriter.store w (Page_log.copy_word_addr node i ~off:0) 9L;
  Page_log.mark_dirty w node i ~off:0;
  Alcotest.(check bool) "active" true (Page_log.active pm node);
  Page_log.discard w node;
  Alcotest.(check int64) "master untouched" 5L (Pmem.load pm base);
  Alcotest.(check bool) "inactive" false (Page_log.active pm node)

let test_page_log_diff_only () =
  (* Only dirty words are applied: a concurrent thread's committed
     values on the same page are not clobbered by stale copy words. *)
  let pm, region, w = mk () in
  let node = Page_log.create w region ~tid:0 ~cap_pages:4 in
  let page = 60 in
  let base = page * Page_log.page_words in
  Page_log.begin_fase w node ~seq:1;
  let i = Page_log.log_page w node ~page in
  (* Someone else updates word 2 of the master after our copy. *)
  Pmem.poke pm (base + 2) 777L;
  Pwriter.store w (Page_log.copy_word_addr node i ~off:3) 42L;
  Page_log.mark_dirty w node i ~off:3;
  Page_log.commit w node;
  Alcotest.(check int64) "their word preserved" 777L (Pmem.load pm (base + 2));
  Alcotest.(check int64) "our word applied" 42L (Pmem.load pm (base + 3))

(* ------------------------------------------------------------------ *)
(* Scheme metadata *)

let test_scheme_names () =
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        "name roundtrip"
        (Some (Scheme.name s))
        (Option.map Scheme.name (Scheme.of_name (Scheme.name s))))
    Scheme.all;
  Alcotest.(check bool) "unknown" true (Scheme.of_name "nope" = None);
  List.iter
    (fun s ->
      Alcotest.(check int) "table2 arity"
        (List.length Scheme.table2_header)
        (List.length (Scheme.props s).table2))
    Scheme.all

(* ------------------------------------------------------------------ *)
(* Allocation guards (native code only, where words are unboxed) *)

(* The per-lock-operation and per-boundary records of the three
   resumption and undo runtimes, with integer payloads, box no word and
   build no list: 1000 rounds allocate no more than a few words of
   set-up. *)
let test_log_records_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let _, region, w = mk () in
    let ido = Ido_log.create w region ~tid:0 ~nregs:8 in
    let jd = Justdo_log.create w region ~tid:1 ~nregs:8 in
    let undo = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:2 ~cap_records:64 in
    let round i =
      (* Two held locks, so the release searches past slot 0. *)
      Ido_log.record_acquire w ido ~holder:7 ~epoch:i;
      Ido_log.record_acquire w ido ~holder:9 ~epoch:i;
      Ido_log.set_recovery_pc w ido ~epoch:i 42;
      Ido_log.record_release w ido ~holder:9;
      Ido_log.record_release w ido ~holder:7;
      Justdo_log.record_acquire w jd ~holder:7;
      Justdo_log.record_acquire w jd ~holder:9;
      Justdo_log.record_release w jd ~holder:9;
      Justdo_log.record_release w jd ~holder:7;
      Undo_log.append_unfenced w undo Undo_log.Acquire ~a:9L ~b:0L ~seq:i;
      Pwriter.fence w;
      ignore (Pwriter.take_cost w : int)
    in
    round 0;
    let before = Gc.minor_words () in
    for i = 1 to 1000 do
      round i
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words over 1000 rounds" words)
      true (words < 100.)
  end

let suites =
  [
    ( "runtime.pwriter",
      [
        Alcotest.test_case "costs" `Quick test_pwriter_costs;
        Alcotest.test_case "coalescing" `Quick test_pwriter_coalescing;
        Alcotest.test_case "clean clwb free" `Quick test_pwriter_clean_clwb_free;
        Alcotest.test_case "independent fences" `Quick test_pwriter_fences_independent;
        Alcotest.test_case "latency knob" `Quick test_latency_knob;
      ] );
    ( "runtime.ido_log",
      [
        Alcotest.test_case "pc/epoch" `Quick test_ido_log_pc_epoch;
        qtest prop_pc_epoch_roundtrip;
        Alcotest.test_case "intRF" `Quick test_ido_log_regs;
        Alcotest.test_case "lock array" `Quick test_ido_log_lock_array;
        Alcotest.test_case "sim stack" `Quick test_ido_log_sim_stack;
      ] );
    ( "runtime.justdo_log",
      [
        Alcotest.test_case "entry lifecycle" `Quick test_justdo_log;
        Alcotest.test_case "survives crash" `Quick test_justdo_log_survives_crash;
        Alcotest.test_case "two-fence locks" `Quick test_justdo_two_fence_locks;
        Alcotest.test_case "release writes back its slot" `Quick
          test_justdo_release_writes_back_slot;
      ] );
    ( "runtime.undo_log",
      [
        Alcotest.test_case "roundtrip" `Quick test_undo_log_roundtrip;
        Alcotest.test_case "open fase" `Quick test_undo_log_open_fase;
        Alcotest.test_case "ring wrap" `Quick test_undo_log_wrap;
        Alcotest.test_case "metadata durable" `Quick test_undo_log_metadata_durable;
        qtest prop_undo_records_roundtrip;
      ] );
    ( "runtime.atlas_recovery",
      [
        Alcotest.test_case "dependence propagation" `Quick
          test_atlas_rollback_propagates;
        Alcotest.test_case "independent FASE survives" `Quick
          test_atlas_independent_fase_survives;
        Alcotest.test_case "undo order" `Quick test_atlas_undo_order;
        qtest prop_atlas_closure_matches_pairwise;
      ] );
    ( "runtime.redo_log",
      [
        Alcotest.test_case "lifecycle" `Quick test_redo_log;
        Alcotest.test_case "overflow" `Quick test_redo_overflow;
      ] );
    ( "runtime.page_log",
      [
        Alcotest.test_case "copy-on-write" `Quick test_page_log_cow;
        Alcotest.test_case "discard" `Quick test_page_log_discard;
        Alcotest.test_case "diff-only commit" `Quick test_page_log_diff_only;
      ] );
    ( "runtime.scheme",
      [ Alcotest.test_case "metadata" `Quick test_scheme_names ] );
    ( "runtime.alloc",
      [
        Alcotest.test_case "log records allocate nothing" `Quick
          test_log_records_allocate_nothing;
      ] );
  ]
