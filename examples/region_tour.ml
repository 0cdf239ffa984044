(* A tour of the iDO compiler pipeline (Fig. 4) on one function.

   Shows, for the stack's push operation: the source IR, the inferred
   FASE, the write-after-read pairs found by alias analysis, the region
   plan (cuts, with their required/elidable classification and register
   sets), and finally the instrumented IR the VM executes.

     dune exec examples/region_tour.exe *)

open Ido_ir
open Ido_analysis
open Ido_runtime

let () =
  let prog = Ido_workloads.Workload.named "stack" in
  let f = Ir.find_func prog "stack_push" in
  Format.printf "=== Source IR ===@.%a@." Ir.pp_func f;

  let cfg = Cfg.build f in
  let fase = Fase.compute_exn cfg in
  Format.printf "=== FASE inference ===@.";
  ignore
    (Ir.fold_instrs
       (fun () pos instr ->
         match instr with
         | Ir.Lock _ when Fase.outermost_acquire fase pos ->
             Format.printf "  outermost acquire at (%d,%d)@." pos.Ir.blk pos.Ir.idx
         | Ir.Unlock _ when Fase.outermost_release fase pos ->
             Format.printf "  outermost release at (%d,%d)@." pos.Ir.blk pos.Ir.idx
         | _ -> ())
       () f);

  let alias = Alias.compute cfg in
  let pairs = Antidep.compute cfg fase alias in
  Format.printf "@.=== Antidependences (WAR pairs needing a cut) ===@.";
  List.iter
    (fun (p : Antidep.pair) ->
      Format.printf "  load (%d,%d) -> store (%d,%d)%s@." p.load.Ir.blk
        p.load.Ir.idx p.store.Ir.blk p.store.Ir.idx
        (if p.same_block then "  [same block: interval cover]" else "  [cross-block]"))
    pairs;

  let lv = Liveness.compute cfg in
  let plan = Regions.compute cfg fase lv alias in
  Format.printf
    "@.=== Region plan: %d cuts (%d lock-induced, %d from the hitting set) ===@."
    (List.length plan.Regions.cuts)
    plan.Regions.n_mandatory plan.Regions.n_hitting;
  List.iter
    (fun (c : Regions.cut) ->
      Format.printf
        "  region #%d at (%d,%d)%s%s  live-in=%d regs, OutputSet=%d regs@."
        c.Regions.id c.Regions.pos.Ir.blk c.Regions.pos.Ir.idx
        (if c.Regions.required then " [required]" else " [elidable]")
        (if c.Regions.at_release then " [at release]" else "")
        (List.length c.Regions.live_in)
        (List.length c.Regions.out_regs))
    plan.Regions.cuts;

  let instrumented = Ido_instrument.Instrument.instrument Scheme.Ido prog in
  Format.printf "@.=== Instrumented IR (what the machine executes) ===@.%a@."
    Ir.pp_func
    (Ir.find_func instrumented "stack_push");

  (* And the dynamic view: region statistics from an actual run. *)
  let stores, live_in =
    Ido_harness.Exp.region_stats ~threads:2 ~total_ops:2_000 prog
  in
  Format.printf "=== Dynamic region characteristics (cf. Fig. 8) ===@.";
  Format.printf "  dynamic regions:      %d@." (Ido_util.Cdf.total stores);
  Format.printf "  mean stores/region:   %.2f@." (Ido_util.Cdf.mean stores);
  Format.printf "  regions with 0 stores: %.1f%%@."
    (100.0 *. Ido_util.Cdf.cumulative stores 0);
  Format.printf "  mean live-in regs:    %.2f@." (Ido_util.Cdf.mean live_in);
  Format.printf "  live-in <= 8 (one cache line): %.1f%%@."
    (100.0 *. Ido_util.Cdf.cumulative live_in 8)
