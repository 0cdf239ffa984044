open Ido_runtime
open Ido_harness

let measure ?(threads = 1) ~ops scheme =
  (Exp.measure (Exp.Spec.make ~scheme ~workload:"stack" ~threads ~ops ()))
    .Exp.prun

let test_throughput_run () =
  let r = measure ~threads:2 ~ops:200 Scheme.Ido in
  Alcotest.(check int) "all ops performed" 400 r.Exp.ops;
  Alcotest.(check bool) "positive throughput" true (r.Exp.mops > 0.0);
  Alcotest.(check bool) "time advanced" true (r.Exp.sim_ns > 0);
  Alcotest.(check bool) "persistence traffic counted" true (r.Exp.fences > 0)

let test_throughput_origin_fastest () =
  let t s = (measure ~ops:400 s).Exp.mops in
  let origin = t Scheme.Origin and ido = t Scheme.Ido and justdo = t Scheme.Justdo in
  Alcotest.(check bool) "origin > ido" true (origin > ido);
  Alcotest.(check bool) "ido > justdo" true (ido > justdo)

let test_crash_report () =
  let r =
    Exp.crash_check ~crash_at:100_000
      (Exp.Spec.make ~scheme:Scheme.Ido ~workload:"queue" ~threads:2
         ~ops:50_000 ())
  in
  Alcotest.(check bool) "recovered and consistent" true r.Exp.check_ok;
  Alcotest.(check bool) "crash happened mid-run" true (r.Exp.crashed_at >= 100_000)

let test_region_stats_collected () =
  let prog = Ido_workloads.Workload.named "stack" in
  let stores, live_in = Exp.region_stats ~threads:2 ~total_ops:400 prog in
  Alcotest.(check bool) "regions recorded" true (Ido_util.Cdf.total stores > 0);
  Alcotest.(check bool) "live-in recorded" true (Ido_util.Cdf.total live_in > 0);
  (* Persist coalescing headroom: the overwhelming majority of regions
     must need at most one cache line of register log. *)
  Alcotest.(check bool) "live-in mostly small" true
    (Ido_util.Cdf.cumulative live_in 8 > 0.95)

let test_scales () =
  Alcotest.(check bool) "quick fewer threads" true
    (List.length (Exp.thread_counts Exp.Quick)
    <= List.length (Exp.thread_counts Exp.Full));
  Alcotest.(check bool) "quick fewer ops" true
    (Exp.micro_total_ops Exp.Quick <= Exp.micro_total_ops Exp.Full)

let test_ablation_knobs_cost () =
  (* Disabling an optimisation must never make iDO faster. *)
  let prog = Ido_workloads.Workload.named "olist" in
  let base = Ido_vm.Vm.config Scheme.Ido in
  let mops cfg =
    let m = Ido_vm.Vm.create cfg prog in
    let _ = Ido_vm.Vm.spawn m ~fname:"init" ~args:[] in
    ignore (Ido_vm.Vm.run m);
    Ido_vm.Vm.flush_all m;
    let t0 = Ido_vm.Vm.clock m in
    for _ = 1 to 2 do
      ignore (Ido_vm.Vm.spawn m ~fname:"worker" ~args:[ 250L ])
    done;
    (match Ido_vm.Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
    float_of_int (Ido_vm.Vm.total_ops m)
    /. float_of_int (Ido_vm.Vm.clock m - t0)
  in
  let full = mops base in
  Alcotest.(check bool) "elision helps" true
    (full >= mops { base with Ido_vm.Vm.elide_clean_boundaries = false });
  Alcotest.(check bool) "coalescing helps" true
    (full >= mops { base with Ido_vm.Vm.coalesce_registers = false });
  Alcotest.(check bool) "single-fence locks help" true
    (full >= mops { base with Ido_vm.Vm.single_fence_locks = false })

let test_ablation_variants_still_recover () =
  (* The knobs trade performance, never correctness. *)
  let prog = Ido_workloads.Workload.named "olist" in
  let base = Ido_vm.Vm.config Scheme.Ido in
  List.iter
    (fun cfg ->
      let m = Ido_vm.Vm.create { cfg with Ido_vm.Vm.seed = 9 } prog in
      let _ = Ido_vm.Vm.spawn m ~fname:"init" ~args:[] in
      ignore (Ido_vm.Vm.run m);
      Ido_vm.Vm.flush_all m;
      for _ = 1 to 3 do
        ignore (Ido_vm.Vm.spawn m ~fname:"worker" ~args:[ 300L ])
      done;
      (match Ido_vm.Vm.run ~until:(Ido_vm.Vm.clock m + 40_000) m with
      | `Until | `Idle -> ()
      | _ -> Alcotest.fail "stuck");
      Ido_vm.Vm.crash m;
      ignore (Ido_vm.Vm.recover m);
      let t = Ido_vm.Vm.spawn m ~fname:"check" ~args:[] in
      match Ido_vm.Vm.run m with
      | `Idle -> Alcotest.(check int) "check observed" 1 (List.length (Ido_vm.Vm.observations t))
      | _ -> Alcotest.fail "check stuck")
    [
      { base with Ido_vm.Vm.elide_clean_boundaries = false };
      { base with Ido_vm.Vm.coalesce_registers = false };
      { base with Ido_vm.Vm.single_fence_locks = false };
    ]

let test_nv_cache_machine () =
  (* On the NV-cache machine, nothing in the cache is lost at a crash
     and persistence is near-free, so iDO gets faster AND still
     recovers. *)
  let prog = Ido_workloads.Workload.named "queue" in
  let base = Ido_vm.Vm.config Scheme.Ido in
  let nv = { base with Ido_vm.Vm.latency = Ido_nvm.Latency.nv_cache_machine } in
  let run cfg =
    let m = Ido_vm.Vm.create { cfg with Ido_vm.Vm.seed = 4 } prog in
    let _ = Ido_vm.Vm.spawn m ~fname:"init" ~args:[] in
    ignore (Ido_vm.Vm.run m);
    Ido_vm.Vm.flush_all m;
    let t0 = Ido_vm.Vm.clock m in
    for _ = 1 to 2 do
      ignore (Ido_vm.Vm.spawn m ~fname:"worker" ~args:[ 200L ])
    done;
    (match Ido_vm.Vm.run ~until:(t0 + 25_000) m with
    | `Until | `Idle -> ()
    | _ -> Alcotest.fail "stuck");
    let progressed = Ido_vm.Vm.total_ops m in
    Ido_vm.Vm.crash m;
    ignore (Ido_vm.Vm.recover m);
    let t = Ido_vm.Vm.spawn m ~fname:"check" ~args:[] in
    (match Ido_vm.Vm.run m with `Idle -> () | _ -> Alcotest.fail "check stuck");
    Alcotest.(check int) "consistent" 1 (List.length (Ido_vm.Vm.observations t));
    progressed
  in
  let volatile_ops = run base in
  let nv_ops = run nv in
  Alcotest.(check bool) "nv-cache machine is faster" true (nv_ops >= volatile_ops)

let test_table2_renders () =
  let s = Figures.table2 () in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " present") true
        (let rec contains i =
           i + String.length frag <= String.length s
           && (String.sub s i (String.length frag) = frag || contains (i + 1))
         in
         contains 0))
    [ "iDO Logging"; "Resumption"; "Idempotent Region"; "JUSTDO"; "Mnemosyne" ]

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "throughput run" `Quick test_throughput_run;
        Alcotest.test_case "scheme ordering" `Quick test_throughput_origin_fastest;
        Alcotest.test_case "crash report" `Quick test_crash_report;
        Alcotest.test_case "region stats" `Quick test_region_stats_collected;
        Alcotest.test_case "scales" `Quick test_scales;
        Alcotest.test_case "ablation knob costs" `Quick test_ablation_knobs_cost;
        Alcotest.test_case "ablation variants recover" `Quick
          test_ablation_variants_still_recover;
        Alcotest.test_case "nv-cache machine" `Quick test_nv_cache_machine;
        Alcotest.test_case "table2" `Quick test_table2_renders;
      ] );
  ]
