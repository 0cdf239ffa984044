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
   recovery's: a 50 ms restart, plus 75 ns per Atlas record. *)
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
          records_scanned = st.Protocol.records_scanned;
          writes_undone = st.Protocol.writes_undone;
          fases_rolled_back = st.Protocol.fases_rolled_back;
          simulated_time = base + (st.Protocol.records_scanned * 75) + Pwriter.take_cost w }
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

(* ------------------------------------------------------------------ *)
(* Torn recovery: a crash during recovery, then recovery again *)

module Oracle = Ido_workloads.Oracle

exception Torn

(* A spec's machines: [create] an empty one to restore images into,
   [boot] one set up with its workers spawned. *)
let spec_machines ~scheme ~workload ~seed ~threads ~ops ~cache_lines =
  let config = { (Vm.config scheme) with seed; cache_lines; pmem_words = 1 lsl 20 } in
  let program = Ido_workloads.Workload.named workload in
  let create () = Vm.create config program in
  let boot () =
    let m = create () in
    Vm.run_init m;
    for _ = 1 to threads do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int ops ])
    done;
    m
  in
  (create, boot)

(* Run the booted [m]'s worker phase, calling [f k] just before its
   [k]-th crash-point event; [f] may raise to stop the run. *)
let run_counting m f =
  let k = ref 0 in
  Vm.set_event_hook m
    (Some
       (fun _ ->
         f !k;
         incr k));
  Fun.protect
    ~finally:(fun () -> Vm.set_event_hook m None)
    (fun () ->
      match Vm.run m with `Idle -> () | _ -> Alcotest.fail "worker phase did not finish");
  !k

(* Recover the crashed [m].  With [tear = Some j], power fails again
   just before recovery's [j]-th crash-point event, and a second
   recovery starts from what the first one left.  Returns the number of
   crash-point events the first recovery ran. *)
let recover_torn ?tear m =
  let count = ref 0 in
  Vm.set_event_hook m
    (Some
       (fun _ ->
         if tear = Some !count then raise Torn;
         incr count));
  let torn =
    Fun.protect
      ~finally:(fun () -> Vm.set_event_hook m None)
      (fun () -> match Vm.recover m with _ -> false | exception Torn -> true)
  in
  if torn then begin
    Vm.crash m;
    ignore (Vm.recover m)
  end;
  !count

(* The recovered image, made durable: the Atomic oracle's verdict and
   the image's digest. *)
let settled workload m =
  Vm.flush_all m;
  let pm = Vm.pmem m in
  let root = Ido_region.Region.get_root (Vm.region m) 0 in
  let mem = { Oracle.load = Pmem.load pm; size = Pmem.size pm } in
  (Oracle.validate ~workload ~mode:Oracle.Atomic ~root mem, Oracle.digest ~workload ~root mem)

(* Forty crash images spread over one run of the spec; each is
   recovered once untorn, then once torn at every crash point of that
   recovery, and every torn recovery must pass the Atomic oracle and
   leave the untorn recovery's image. *)
let torn_recovery_holds (scheme, workload, seed, threads, ops, cache_lines) =
  let create, boot = spec_machines ~scheme ~workload ~seed ~threads ~ops ~cache_lines in
  let events = run_counting (boot ()) ignore in
  let instants = Array.init 40 (fun i -> (i + 1) * events / 41) in
  let target = create () in
  let next = ref 0 and torn = ref 0 in
  let check k image =
    let at = Printf.sprintf "%s/%s seed %d crash %d" (Scheme.name scheme) workload seed k in
    Vm.restore_crashed target image;
    let n = recover_torn target in
    let want = settled workload target in
    (match fst want with Ok () -> () | Error e -> Alcotest.failf "%s: %s" at e);
    for j = 0 to n - 1 do
      Vm.restore_crashed target image;
      (match recover_torn ~tear:j target with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s, recovery torn at %d of %d: %s" at j n (Printexc.to_string e));
      let verdict, digest = settled workload target in
      (match verdict with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s, recovery torn at %d of %d: %s" at j n e);
      if digest <> snd want then
        Alcotest.failf "%s, recovery torn at %d of %d: image differs from untorn" at j n;
      incr torn
    done
  in
  let m = boot () in
  ignore
    (run_counting m (fun k ->
         while !next < Array.length instants && instants.(!next) = k do
           check k (Vm.crash_image m);
           incr next
         done));
  if !torn = 0 then Alcotest.failf "%s/%s: no recovery was torn" (Scheme.name scheme) workload

let test_torn_recovery () =
  List.iter torn_recovery_holds
    Scheme.
      [
        (Ido, "queue", 1, 3, 30, 4096);
        (Ido, "stack", 2, 3, 30, 4);
        (Ido, "mlog", 3, 3, 30, 4096);
        (Ido, "kvcache50", 4, 3, 30, 4096);
        (Justdo, "hmap", 11, 3, 30, 4);
        (Justdo, "olist", 1, 3, 30, 4096);
        (Atlas, "queue", 2, 3, 30, 4);
        (Atlas, "hmap", 11, 3, 30, 4096);
        (Nvml, "objstore", 3, 1, 90, 4);
        (Mnemosyne, "olist", 4, 3, 30, 4);
        (Mnemosyne, "hmap", 5, 3, 30, 4096);
        (Nvthreads, "queue", 11, 3, 30, 4);
        (Nvthreads, "olistrm", 1, 3, 30, 4096);
      ]

(* Expected failure: iDO's recovery is not restartable.  Crashing
   [ido_check replay --scheme ido --workload hmap --seed 11 --threads 3
   --ops 30 --cache-lines 4096 --index 755] recovers consistently, but
   tearing that recovery at its crash point 20 of 56 leaves two log
   nodes that both hold lock 1006, and the second recovery refuses to
   resume them.  Restartable iDO recovery must flip this test. *)
let test_ido_torn_double_claim () =
  let create, boot =
    spec_machines ~scheme:Scheme.Ido ~workload:"hmap" ~seed:11 ~threads:3 ~ops:30
      ~cache_lines:4096
  in
  let m = boot () in
  let image = ref None in
  ignore (run_counting m (fun k -> if k = 755 then image := Some (Vm.crash_image m)));
  let image = Option.get !image and target = create () in
  Vm.restore_crashed target image;
  Alcotest.(check int) "crash points of the untorn recovery" 56 (recover_torn target);
  Alcotest.(check bool) "untorn recovery passes the oracle" true
    (fst (settled "hmap" target) = Ok ());
  Vm.restore_crashed target image;
  match recover_torn ~tear:20 target with
  | _ -> Alcotest.fail "recovery torn at 20 of 56 now recovers: restartable iDO recovery landed"
  | exception Failure e ->
      Alcotest.(check string) "second recovery" "recovery: lock 1006 claimed by two recovery threads (6, 6)" e

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
        Alcotest.test_case "torn recovery = untorn recovery" `Quick test_torn_recovery;
        Alcotest.test_case "ido torn recovery double-claims a lock (expected failure)" `Quick
          test_ido_torn_double_claim;
      ] );
  ]
