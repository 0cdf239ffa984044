(* Integration: the full compile -> instrument -> run -> crash ->
   recover -> check pipeline over every workload and scheme. *)

open Ido_nvm
open Ido_runtime
module Vm = Ido_vm.Vm

let qtest = QCheck_alcotest.to_alcotest

let run_check m =
  let t = Vm.spawn m ~fname:"check" ~args:[] in
  match Vm.run m with
  | `Idle -> (
      match Vm.observations t with
      | [ n ] -> Ok (Int64.to_int n)
      | l -> Error (Printf.sprintf "check observed %d values" (List.length l)))
  | `Deadlock -> Error "deadlock in check"
  | _ -> Error "check did not finish"
  | exception Vm.Vm_error e -> Error e

let crash_and_verify ?cache_lines ~scheme ~workload ~threads ~seed ~crash_at () =
  let prog = Ido_workloads.Workload.named workload in
  let base = Vm.config scheme in
  let cfg =
    { base with seed;
      cache_lines = Option.value ~default:base.Vm.cache_lines cache_lines }
  in
  let m = Vm.create cfg prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  (match Vm.run m with `Idle -> () | _ -> failwith "init stuck");
  Vm.flush_all m;
  for _ = 1 to threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 250L ])
  done;
  (match Vm.run ~until:crash_at m with
  | `Until | `Idle -> ()
  | `Deadlock -> failwith "workload deadlocked"
  | `Max_steps -> failwith "step budget");
  Vm.crash m;
  let _ = Vm.recover m in
  run_check m

let recoverable = Scheme.[ Ido; Atlas; Mnemosyne; Justdo; Nvthreads ]

(* NVML protects only programmer-delineated durable regions, so it is
   exercised on the objstore alone. *)
let schemes_for workload =
  if workload = "objstore" then Scheme.Nvml :: recoverable else recoverable

let test_matrix () =
  List.iter
    (fun workload ->
      List.iter
        (fun scheme ->
          List.iter
            (fun seed ->
              let threads = if workload = "objstore" then 1 else 3 in
              match
                crash_and_verify ~scheme ~workload ~threads ~seed
                  ~crash_at:(25_000 + (seed * 17_771)) ()
              with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "%s/%s seed=%d: %s" workload
                    (Scheme.name scheme) seed e)
            [ 1; 2; 3 ])
        (schemes_for workload))
    Ido_workloads.Workload.names

let test_origin_is_vulnerable () =
  (* Documented hazard: the uninstrumented baseline must eventually
     produce an inconsistent post-crash heap (otherwise the whole
     experiment measures nothing).  We scan seeds for at least one
     violation. *)
  let broken = ref 0 in
  for seed = 1 to 12 do
    match
      crash_and_verify ~cache_lines:16 ~scheme:Scheme.Origin ~workload:"queue"
        ~threads:3 ~seed ~crash_at:(30_000 + (seed * 13_000)) ()
    with
    | Ok _ -> ()
    | Error _ -> incr broken
  done;
  Alcotest.(check bool) "origin corrupts at least once" true (!broken > 0)

let test_double_crash () =
  (* Crash during normal execution, recover, run more work, crash
     again, recover again: consistency must hold across repeated
     failures. *)
  List.iter
    (fun scheme ->
      let prog = Ido_workloads.Workload.named "stack" in
      let m = Vm.create { (Vm.config scheme) with seed = 5 } prog in
      let _ = Vm.spawn m ~fname:"init" ~args:[] in
      ignore (Vm.run m);
      Vm.flush_all m;
      for _ = 1 to 2 do
        ignore (Vm.spawn m ~fname:"worker" ~args:[ 400L ])
      done;
      (match Vm.run ~until:60_000 m with `Until | `Idle -> () | _ -> assert false);
      Vm.crash m;
      let _ = Vm.recover m in
      for _ = 1 to 2 do
        ignore (Vm.spawn m ~fname:"worker" ~args:[ 400L ])
      done;
      (match Vm.run ~until:(Vm.clock m + 40_000) m with
      | `Until | `Idle -> ()
      | _ -> assert false);
      Vm.crash m;
      let _ = Vm.recover m in
      match run_check m with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s double crash: %s" (Scheme.name scheme) e)
    recoverable

let test_recovery_stats_sensible () =
  let prog = Ido_workloads.Workload.named "hmap" in
  let m = Vm.create { (Vm.config Scheme.Ido) with seed = 7 } prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  ignore (Vm.run m);
  Vm.flush_all m;
  for _ = 1 to 4 do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 10_000L ])
  done;
  (match Vm.run ~until:(Vm.clock m + 200_000) m with
  | `Until -> ()
  | _ -> Alcotest.fail "expected mid-run crash point");
  Vm.crash m;
  let st = Vm.recover m in
  Alcotest.(check bool) "some FASEs resumed" true
    (st.Ido_vm.Recover.fases_resumed >= 0
    && st.Ido_vm.Recover.fases_resumed <= 4);
  Alcotest.(check bool) "recovery time dominated by restart constant" true
    (st.Ido_vm.Recover.simulated_time >= Ido_util.Timebase.ms 300)

let test_recovery_time_constant_in_run_length () =
  (* Sec. V-D: iDO recovery is ~constant; Atlas recovery grows with
     the log volume. *)
  let measure scheme crash_at =
    let prog = Ido_workloads.Workload.named "queue" in
    let m = Vm.create { (Vm.config scheme) with seed = 3 } prog in
    let _ = Vm.spawn m ~fname:"init" ~args:[] in
    ignore (Vm.run m);
    Vm.flush_all m;
    for _ = 1 to 4 do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ 1_000_000L ])
    done;
    (match Vm.run ~until:crash_at m with `Until -> () | _ -> assert false);
    Vm.crash m;
    let records = ref 0 in
    records := Vm.undo_records_total m;
    let st = Vm.recover m in
    (st.Ido_vm.Recover.simulated_time, !records)
  in
  let ido_short, _ = measure Scheme.Ido 200_000 in
  let ido_long, _ = measure Scheme.Ido 2_000_000 in
  let atlas_short, r1 = measure Scheme.Atlas 200_000 in
  let atlas_long, r2 = measure Scheme.Atlas 2_000_000 in
  Alcotest.(check bool) "iDO constant-ish" true
    (float_of_int ido_long < 1.2 *. float_of_int ido_short);
  Alcotest.(check bool) "Atlas log grows with run" true (r2 > (3 * r1));
  Alcotest.(check bool) "Atlas recovery grows" true (atlas_long > atlas_short)

let prop_ido_random_crash_points =
  QCheck.Test.make ~name:"ido olist recovery at random crash points" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 5_000 400_000))
    (fun (seed, crash_at) ->
      match
        crash_and_verify ~scheme:Scheme.Ido ~workload:"olist" ~threads:4 ~seed
          ~crash_at ()
      with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Undo recovery: flat arrays = the list-based reference *)

module Reference = Test_runtime.Reference
module State = Ido_vm.State
module Recover = Ido_vm.Recover

(* What {!Vm.recover} does for an undo-log scheme, with the list-based
   recovery in place of the flat one.  The time constants repeat
   recover.ml's: a 50 ms restart, plus 75 ns per Atlas record. *)
let reference_recover (m : State.t) : Recover.stats =
  let w = Pwriter.create m.State.pmem m.State.config.Vm.latency in
  let empty =
    { Recover.scheme = m.State.config.Vm.scheme; fases_resumed = 0; records_scanned = 0;
      writes_undone = 0; fases_rolled_back = 0; pages_restored = 0; txns_replayed = 0;
      simulated_time = 0 }
  in
  let base = Ido_util.Timebase.ms 50 in
  let st =
    match m.State.config.Vm.scheme with
    | Scheme.Atlas ->
        let st = Reference.recover_atlas w m.State.region in
        { empty with
          records_scanned = st.Atlas_recovery.records_scanned;
          writes_undone = st.Atlas_recovery.writes_undone;
          fases_rolled_back = st.Atlas_recovery.fases_rolled_back;
          simulated_time =
            base + (st.Atlas_recovery.records_scanned * 75) + st.Atlas_recovery.cost }
    | Scheme.Nvml ->
        let scanned, undone, rolled = Reference.recover_nvml w m.State.region in
        { empty with
          records_scanned = scanned; writes_undone = undone; fases_rolled_back = rolled;
          simulated_time = base + Pwriter.take_cost w }
    | s -> invalid_arg ("reference_recover: " ^ Scheme.name s)
  in
  m.State.crashed <- false;
  Ido_region.Region.mark_clean m.State.region;
  st

(* One run's crash images at ten instants spread over its worker
   phase; each is restored into two machines, one recovered by
   {!Vm.recover} and one by the reference.  Their stats, persist-event
   streams (stores, write-backs, fences, evictions, in order), pmem
   counters, persisted and newest words of every materialised page,
   and dirty lines must agree.  Returns the summed stats, so a case
   can require that it undid something. *)
let undo_recovery_matches_reference (scheme, workload, threads, cache_lines) =
  let program = Ido_workloads.Workload.named workload in
  let config = { (Vm.config scheme) with seed = 11; cache_lines; pmem_words = 1 lsl 20 } in
  let ops = Int64.of_int (240 / threads) in
  let boot () =
    let m = Vm.create config program in
    Vm.run_init m;
    m
  in
  let start m =
    for _ = 1 to threads do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ ops ])
    done
  in
  let run_observed m f =
    Vm.set_event_hook m (Some f);
    (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "worker phase did not finish");
    Vm.set_event_hook m None
  in
  let a = boot () in
  start a;
  let events = ref 0 in
  run_observed a (fun _ -> incr events);
  let instants = List.init 10 (fun i -> (i + 1) * !events / 11) in
  let b = boot () in
  start b;
  let images = ref [] and k = ref 0 in
  run_observed b (fun _ ->
      if List.mem !k instants then images := (!k, Vm.crash_image b) :: !images;
      incr k);
  let flat = boot () and reference = boot () in
  let undone = ref 0 and rolled = ref 0 in
  List.iter
    (fun (k, image) ->
      let at = Printf.sprintf "%s/%s t%d c%d event %d" (Scheme.name scheme) workload threads
          cache_lines k in
      let persist_events m =
        let evs = ref [] in
        Vm.set_event_hook m
          (Some (fun e -> if Ido_obs.Obs.crash_point e then evs := e :: !evs));
        evs
      in
      Vm.restore_crashed flat image;
      Vm.restore_crashed reference image;
      let flat_events = persist_events flat and reference_events = persist_events reference in
      let got = Vm.recover flat and want = reference_recover reference in
      Alcotest.(check bool) (at ^ ": stats") true (got = want);
      Alcotest.(check (list string)) (at ^ ": persist events")
        (List.rev_map Ido_obs.Obs.describe !reference_events)
        (List.rev_map Ido_obs.Obs.describe !flat_events);
      let pf = Vm.pmem flat and pr = Vm.pmem reference in
      Alcotest.(check bool) (at ^ ": pmem counters") true
        (Pmem.counters pf = Pmem.counters pr);
      Alcotest.(check bool) (at ^ ": persisted words") true
        (Pmem.crash_image pf = Pmem.crash_image pr);
      Alcotest.(check bool) (at ^ ": newest words") true
        (Pmem.crash_image ~cache_survives:true pf = Pmem.crash_image ~cache_survives:true pr);
      Alcotest.(check (list int)) (at ^ ": dirty lines") (Pmem.dirty_linenos pr)
        (Pmem.dirty_linenos pf);
      undone := !undone + got.Recover.writes_undone;
      rolled := !rolled + got.Recover.fases_rolled_back)
    !images;
  Alcotest.(check int) "ten crash images" 10 (List.length !images);
  (!undone, !rolled)

let test_undo_recovery_differential () =
  List.iter
    (fun ((scheme, workload, _, _) as case) ->
      let undone, rolled = undo_recovery_matches_reference case in
      if undone = 0 || rolled = 0 then
        Alcotest.failf "%s/%s: no crash image undid anything (undone %d, rolled back %d)"
          (Scheme.name scheme) workload undone rolled)
    Scheme.
      [
        (Atlas, "stack", 2, 2);
        (Atlas, "queue", 4, 4);
        (Atlas, "olist", 8, 2);
        (Atlas, "olist", 4, 4096);
        (Atlas, "hmap", 3, 4096);
        (Atlas, "hmap", 8, 4);
        (Nvml, "objstore", 1, 4);
        (Nvml, "objstore", 1, 4096);
      ]

(* Host allocation of Atlas recovery, counted as minor + major -
   promoted words with a minor collection before each reading (the
   counters of a half-full minor heap drift by up to its size).  The
   flat arrays take about 7 words per scanned record here; the list
   pipeline took 30 (36 on olist). *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_atlas_recovery_allocation () =
  if Sys.backend_type = Sys.Native then begin
    (* Table I's atlas/hmap cell: 8 threads, power failed at 3 ms. *)
    let m =
      Vm.create { (Vm.config Scheme.Atlas) with seed = 42 }
        (Ido_workloads.Workload.named "hmap")
    in
    Vm.run_init m;
    for _ = 1 to 8 do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ])
    done;
    (match Vm.run ~until:(Ido_util.Timebase.ms 3) m with
    | `Until -> ()
    | _ -> Alcotest.fail "expected a mid-run crash point");
    Vm.crash m;
    let before = allocated_words () in
    let st = Vm.recover m in
    let words = allocated_words () -. before in
    let records = st.Recover.records_scanned in
    Alcotest.(check int) "records scanned" 118_809 records;
    let per_record = words /. float_of_int records in
    Alcotest.(check bool)
      (Printf.sprintf "%.1f words per scanned record (bound 16)" per_record)
      true (per_record <= 16.)
  end

let suites =
  [
    ( "recovery",
      [
        Alcotest.test_case "matrix (all workloads x schemes)" `Slow test_matrix;
        Alcotest.test_case "origin is crash-vulnerable" `Quick
          test_origin_is_vulnerable;
        Alcotest.test_case "double crash" `Quick test_double_crash;
        Alcotest.test_case "stats sensible" `Quick test_recovery_stats_sensible;
        Alcotest.test_case "iDO constant vs Atlas growing" `Quick
          test_recovery_time_constant_in_run_length;
        qtest prop_ido_random_crash_points;
        Alcotest.test_case "undo recovery = list-based reference" `Quick
          test_undo_recovery_differential;
        Alcotest.test_case "atlas recovery allocation" `Quick
          test_atlas_recovery_allocation;
      ] );
  ]
