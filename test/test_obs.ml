(* The observability layer (lib/obs) and its contract with the rest of
   the machine: the sink's rollup must agree exactly with the pmem
   counters on every run — random programs x all schemes, crash and
   recovery included — the crash-injection hook must see exactly the
   sink's crash-point events, the engine's crashed-run entry points
   must agree, a saved trace must replay to the same digest
   and the same bytes, the per-log overflow exceptions must carry
   their typed payloads, and the O(1) dirty-line index must keep the
   eviction stream deterministic under a fixed seed. *)

open Ido_util
open Ido_nvm
open Ido_region
open Ido_runtime
module Vm = Ido_vm.Vm
module Obs = Ido_obs.Obs
module Engine = Ido_check.Engine
module Trace = Ido_check.Trace

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* The sink in isolation *)

let test_rollup_basics () =
  let o = Obs.create () in
  Obs.emit o ~tid:0 ~fase:(-1) (Obs.Store 8);
  Obs.emit o ~tid:0 ~fase:3 (Obs.Log_append { log = "undo"; bytes = 32 });
  Obs.emit o ~tid:1 ~fase:4 (Obs.Log_append { log = "undo"; bytes = 32 });
  Obs.emit o ~tid:1 ~fase:4 Obs.Fase_exit;
  Alcotest.(check int) "count" 4 (Obs.count o);
  let t = Obs.total o in
  Alcotest.(check int) "stores" 1 t.Obs.stores;
  Alcotest.(check int) "appends" 2 t.Obs.log_appends;
  Alcotest.(check int) "log bytes" 64 t.Obs.log_bytes;
  (* The machine-level store (fase -1) is attributed to no FASE. *)
  Alcotest.(check int) "distinct fases" 2 (Obs.fases o)

let test_check_mismatch () =
  let o = Obs.create () in
  Obs.emit o ~tid:0 ~fase:(-1) (Obs.Store 0);
  (match Obs.check o ~stores:1 ~writebacks:0 ~fences:0 ~evictions:0 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "consistent sink rejected: %s" m);
  match Obs.check o ~stores:2 ~writebacks:0 ~fences:0 ~evictions:0 with
  | Ok () -> Alcotest.fail "store undercount unnoticed"
  | Error m ->
      Alcotest.(check string) "names the counter" "obs/stores"
        (String.sub m 0 (String.length "obs/stores"))

let test_ndjson () =
  let o = Obs.create () in
  Obs.emit o ~tid:2 ~fase:7 (Obs.Log_append { log = "redo"; bytes = 16 });
  Obs.emit o ~tid:0 ~fase:(-1) Obs.Crash;
  match Obs.events o with
  | [ a; b ] ->
      Alcotest.(check string) "payload fields"
        {|{"type":"event","seq":0,"tid":2,"fase":7,"kind":"log_append","log":"redo","bytes":16}|}
        (Obs.event_to_ndjson a);
      Alcotest.(check string) "payload-free kind"
        {|{"type":"event","seq":1,"tid":0,"fase":-1,"kind":"crash"}|}
        (Obs.event_to_ndjson b)
  | l -> Alcotest.failf "buffered %d events" (List.length l)

let test_unbuffered () =
  let o = Obs.create ~buffer:false () in
  for _ = 1 to 5 do
    Obs.emit o ~tid:0 ~fase:0 (Obs.Fence 0)
  done;
  Alcotest.(check int) "count" 5 (Obs.count o);
  Alcotest.(check int) "fences" 5 (Obs.total o).Obs.fences;
  Alcotest.(check bool) "no buffer" true (Obs.events o = [])

(* ------------------------------------------------------------------ *)
(* The sink against the machine *)

(* Installing a sink must not perturb execution: clocks and counters
   are bit-identical with and without one. *)
let test_sink_no_perturbation () =
  let run with_obs =
    let m =
      Vm.create
        { (Vm.config Scheme.Ido) with seed = 7 }
        (Ido_workloads.Workload.named "stack")
    in
    if with_obs then Vm.set_obs m (Some (Obs.create ~buffer:false ()));
    ignore (Vm.spawn m ~fname:"init" ~args:[]);
    ignore (Vm.run m);
    Vm.flush_all m;
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 10L ]);
    (match Vm.run m with `Idle -> () | _ -> failwith "stuck");
    let c = Pmem.counters (Vm.pmem m) in
    ( Vm.clock m, c.Pmem.stores, c.Pmem.clwbs, c.Pmem.writebacks,
      c.Pmem.fences, c.Pmem.evictions )
  in
  Alcotest.(check bool) "identical run" true (run false = run true)

(* The central invariant: over any program, any scheme, crash and
   recovery included, the sink sees exactly one event per counted pmem
   action.  Reuses the random single-FASE generator of the idempotence
   suite. *)
let crash_recover_resume m =
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  ignore (Vm.run m);
  Vm.flush_all m;
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 0L ]);
  let t0 = Vm.clock m in
  (match Vm.run ~until:(t0 + 500) m with
  | `Until ->
      Vm.crash m;
      ignore (Vm.recover m)
  | `Idle -> ()
  | _ -> failwith "worker stuck");
  match Vm.run m with `Idle -> () | _ -> failwith "resume stuck"

let prop_rollup_matches_counters =
  QCheck.Test.make
    ~name:"obs rollup equals pmem counters (all schemes, crash+recovery)"
    ~count:30 Test_idempotence.ops_arb (fun ops ->
      let prog = Test_idempotence.program_of ops in
      let seed = 1 + (Hashtbl.hash ops mod 1000) in
      List.for_all
        (fun scheme ->
          let m = Vm.create { (Vm.config scheme) with seed } prog in
          Vm.set_obs m (Some (Obs.create ~buffer:false ()));
          crash_recover_resume m;
          Vm.obs_check m = Ok ())
        Scheme.all)

(* One stream: the crash-injection hook sees exactly the sink's
   crash-point events, in the same order — through the worker phase,
   the crash and recovery, and the resumed threads alike. *)
let prop_hook_is_filtered_sink =
  QCheck.Test.make
    ~name:"hook stream = sink stream filtered by crash_point (all schemes)"
    ~count:20 Test_idempotence.ops_arb (fun ops ->
      let prog = Test_idempotence.program_of ops in
      let seed = 1 + (Hashtbl.hash ops mod 1000) in
      List.for_all
        (fun scheme ->
          let m = Vm.create { (Vm.config scheme) with seed } prog in
          let hooked = ref [] in
          let obs = Obs.create () in
          Vm.set_event_hook m (Some (fun k -> hooked := k :: !hooked));
          Vm.set_obs m (Some obs);
          crash_recover_resume m;
          let kinds =
            List.map (fun (e : Obs.event) -> e.Obs.kind) (Obs.events obs)
          in
          !hooked <> []
          && List.rev !hooked = List.filter Obs.crash_point kinds)
        Scheme.all)

(* A tap sees exactly what the buffer keeps, in the same order, and the
   sink counts exactly the distinct FASE ids of the buffered stream. *)
let prop_tap_is_buffer =
  QCheck.Test.make
    ~name:"tap stream = buffered stream; FASE count = distinct ids in it"
    ~count:20 Test_idempotence.ops_arb (fun ops ->
      let prog = Test_idempotence.program_of ops in
      let seed = 1 + (Hashtbl.hash ops mod 1000) in
      List.for_all
        (fun scheme ->
          let m = Vm.create { (Vm.config scheme) with seed } prog in
          let tapped = ref [] in
          let obs = Obs.create ~tap:(fun e -> tapped := e :: !tapped) () in
          Vm.set_obs m (Some obs);
          crash_recover_resume m;
          let evs = Obs.events obs in
          let ids =
            List.sort_uniq compare
              (List.filter_map
                 (fun (e : Obs.event) ->
                   if e.Obs.fase >= 0 then Some e.Obs.fase else None)
                 evs)
          in
          evs <> []
          && List.rev !tapped = evs
          && Obs.fases obs = List.length ids)
        Scheme.all)

(* Every supported scheme x workload pair reconciles on a crash-free
   traced run (the same check `ido_check trace` performs). *)
let test_traced_all_pairs () =
  List.iter
    (fun workload ->
      List.iter
        (fun scheme ->
          if Engine.supported scheme workload then
            let spec = Engine.defaults ~ops:5 ~scheme ~workload () in
            let tr = Engine.run_traced spec in
            match tr.Engine.t_consistency with
            | Ok () -> ()
            | Error m ->
                Alcotest.failf "%s/%s: %s" (Scheme.name scheme) workload m)
        Scheme.all)
    Ido_workloads.Workload.names

(* The engine's three crashed-run entry points share one injection
   protocol, so at any index they must name the same crashed-before
   event and reach the same verdict. *)
let test_injection_entry_points_agree () =
  List.iter
    (fun scheme ->
      let workload = if scheme = Scheme.Nvml then "objstore" else "queue" in
      let spec =
        Engine.defaults ~threads:2 ~ops:4 ~cache_lines:4 ~scheme ~workload ()
      in
      let oracle m =
        let pm = Vm.pmem m in
        Ido_workloads.Oracle.validate ~workload
          ~mode:spec.Engine.oracle_mode ~root:(Engine.probe_root m)
          { Ido_workloads.Oracle.load = Pmem.load pm; size = Pmem.size pm }
      in
      let custom =
        { (Engine.custom_of_spec spec) with Engine.c_validate = oracle }
      in
      let total = Array.length (Engine.record spec) in
      let label = Printf.sprintf "%s/%s" (Scheme.name scheme) workload in
      List.iter
        (fun k ->
          let inj = Engine.inject spec k in
          let traced =
            match (Engine.run_traced ~index:k spec).Engine.t_injection with
            | Some i -> i
            | None -> Alcotest.failf "%s@%d: traced run not crashed" label k
          in
          let pr = Engine.probe ~index:k ~obs:(Obs.create ()) custom in
          let at = Printf.sprintf "%s@%d" label k in
          Alcotest.(check (option string))
            (at ^ " traced event") inj.Engine.event traced.Engine.event;
          Alcotest.(check (option string))
            (at ^ " probe event") inj.Engine.event pr.Engine.pr_event;
          Alcotest.(check bool) (at ^ " traced verdict") true
            (inj.Engine.verdict = traced.Engine.verdict);
          Alcotest.(check bool) (at ^ " probe verdict") true
            (inj.Engine.verdict = pr.Engine.pr_verdict))
        (List.init 6 (fun i -> i * total / 5)))
    Scheme.all

(* A trace file is a complete, portable repro: loading it and
   replaying from the header alone reproduces the digest, and saving
   the replay reproduces the file byte for byte. *)
let test_trace_replay_digest () =
  let spec = Engine.defaults ~ops:8 ~scheme:Scheme.Ido ~workload:"queue" () in
  let tr = Engine.run_traced ~index:200 spec in
  (match tr.Engine.t_consistency with
  | Ok () -> ()
  | Error m -> Alcotest.failf "traced injection inconsistent: %s" m);
  let path = Filename.temp_file "ido_trace" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save tr path;
      let s = Trace.load path in
      Alcotest.(check int) "event count survives the file"
        (Obs.count tr.Engine.t_obs) s.Trace.events;
      Alcotest.(check string) "digest survives the file" tr.Engine.t_digest
        s.Trace.digest;
      Alcotest.(check (option int)) "index survives the file" (Some 200)
        s.Trace.index;
      let again = Trace.replay s in
      Alcotest.(check string) "replay digest" s.Trace.digest
        again.Engine.t_digest;
      let path2 = Filename.temp_file "ido_trace" ".ndjson" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path2)
        (fun () ->
          Trace.save again path2;
          let read f = In_channel.with_open_bin f In_channel.input_all in
          Alcotest.(check string) "byte-identical re-save" (read path)
            (read path2)))

(* ------------------------------------------------------------------ *)
(* Eviction determinism (the O(1) dirty-line index) *)

let test_evict_stream_deterministic () =
  let record () =
    let pm = Pmem.create ~cache_lines:4 ~rng:(Rng.create 99) (1 lsl 12) in
    let evs = ref [] in
    Pmem.set_event_hook pm
      (Some (function Obs.Evict a -> evs := a :: !evs | _ -> ()));
    let r = Rng.create 5 in
    for _ = 1 to 500 do
      Pmem.store pm (Rng.int r (1 lsl 12)) 1L
    done;
    List.rev !evs
  in
  let a = record () and b = record () in
  Alcotest.(check bool) "evictions happened" true (List.length a > 100);
  Alcotest.(check (list int)) "victim stream identical" a b

(* ------------------------------------------------------------------ *)
(* Typed log-overflow exceptions (one per remaining log) *)

let mk () =
  let pm = Pmem.create ~rng:(Rng.create 1) (1 lsl 18) in
  let region = Region.create pm in
  let w = Pwriter.create pm Latency.default in
  (pm, region, w)

let test_justdo_lock_overflow () =
  let _, region, w = mk () in
  let node = Justdo_log.create w region ~tid:2 ~nregs:4 in
  Alcotest.check_raises "overflow"
    (Lognode.Log_overflow
       {
         Lognode.scheme = "justdo";
         tid = 2;
         log = "lock_array";
         capacity = Ido_log.lock_slots;
       })
    (fun () ->
      for h = 1 to Ido_log.lock_slots + 1 do
        Justdo_log.record_acquire w node ~holder:h
      done)

let test_page_set_overflow () =
  let _, region, w = mk () in
  let node = Page_log.create w region ~tid:1 ~cap_pages:2 in
  Page_log.begin_fase w node ~seq:1;
  Alcotest.check_raises "overflow"
    (Lognode.Log_overflow
       { Lognode.scheme = "nvthreads"; tid = 1; log = "page_set"; capacity = 2 })
    (fun () ->
      for p = 10 to 12 do
        ignore (Page_log.log_page w node ~page:p)
      done)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "rollup and per-FASE attribution" `Quick
          test_rollup_basics;
        Alcotest.test_case "check flags mismatches" `Quick test_check_mismatch;
        Alcotest.test_case "ndjson event shape" `Quick test_ndjson;
        Alcotest.test_case "unbuffered sink keeps rollups only" `Quick
          test_unbuffered;
        Alcotest.test_case "sink does not perturb execution" `Quick
          test_sink_no_perturbation;
        qtest prop_rollup_matches_counters;
        qtest prop_hook_is_filtered_sink;
        qtest prop_tap_is_buffer;
      ] );
    ( "obs.traced",
      [
        Alcotest.test_case "obs/counters reconcile on every pair" `Quick
          test_traced_all_pairs;
        Alcotest.test_case "inject, run_traced and probe agree" `Quick
          test_injection_entry_points_agree;
        Alcotest.test_case "trace replays to the same digest and bytes" `Quick
          test_trace_replay_digest;
      ] );
    ( "obs.pmem",
      [
        Alcotest.test_case "evict victim stream deterministic under seed"
          `Quick test_evict_stream_deterministic;
      ] );
    ( "obs.overflow",
      [
        Alcotest.test_case "justdo lock array" `Quick test_justdo_lock_overflow;
        Alcotest.test_case "nvthreads page set" `Quick test_page_set_overflow;
      ] );
  ]
