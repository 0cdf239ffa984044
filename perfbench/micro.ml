(* Bechamel micro-measurements of single layers, independent of the
   workload: the runtime primitives whose ratios drive every throughput
   figure, the region-formation analysis behind Fig. 8, and one crash +
   recovery cycle per scheme behind Table I.  Each yields the OLS
   estimate of host ns per call. *)

open Bechamel
open Toolkit
open Ido_runtime
module Vm = Ido_vm.Vm

let primitive_tests () =
  let pm = Ido_nvm.Pmem.create ~rng:(Ido_util.Rng.create 1) (1 lsl 20) in
  let region = Ido_region.Region.create pm in
  let w = Pwriter.create pm Ido_nvm.Latency.default in
  let undo = Undo_log.create w region ~kind:Lognode.kind_atlas ~tid:0 ~cap_records:4096 in
  let jd = Justdo_log.create w region ~tid:1 ~nregs:16 in
  let ido = Ido_log.create w region ~tid:2 ~nregs:16 in
  let seq = ref 0 in
  [
    Test.make ~name:"runtime.ido_boundary_ns"
      (Staged.stage (fun () ->
           Ido_log.write_out_regs w ido [ (0, 1L); (1, 2L); (2, 3L); (3, 4L) ];
           Pwriter.fence w;
           incr seq;
           Ido_log.set_recovery_pc w ido ~epoch:!seq 42;
           Pwriter.fence w;
           ignore (Pwriter.take_cost w)));
    Test.make ~name:"runtime.undo_append_ns"
      (Staged.stage (fun () ->
           incr seq;
           Undo_log.log_write w undo ~addr:(!seq mod 1024) ~old:7L ~seq:!seq;
           if Undo_log.total pm undo mod 4000 = 0 then Undo_log.reset w undo;
           ignore (Pwriter.take_cost w)));
    Test.make ~name:"runtime.justdo_store_ns"
      (Staged.stage (fun () ->
           incr seq;
           Justdo_log.log_store w jd ~pc:!seq ~addr:(!seq mod 1024) ~value:9L;
           ignore (Pwriter.take_cost w)));
    Test.make ~name:"nvm.persist_store_ns"
      (Staged.stage (fun () ->
           incr seq;
           Pwriter.persist_store w (!seq mod 1024) 5L;
           ignore (Pwriter.take_cost w)));
  ]

let region_plan_test () =
  let f = Ido_ir.Ir.find_func (Ido_workloads.Workload.named "olist") "list_put" in
  Test.make ~name:"instrument.region_plan_ns"
    (Staged.stage (fun () -> ignore (Ido_instrument.Instrument.region_plan f)))

let crash_recover_test name scheme =
  let prog = Ido_workloads.Workload.named "queue" in
  Test.make ~name
    (Staged.stage (fun () ->
         let m = Vm.create (Vm.config scheme) prog in
         ignore (Vm.spawn m ~fname:"init" ~args:[]);
         ignore (Vm.run m);
         Vm.flush_all m;
         ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ]);
         ignore (Vm.run ~until:(Vm.clock m + 50_000) m);
         Vm.crash m;
         ignore (Vm.recover m)))

let tests () =
  primitive_tests ()
  @ [
      region_plan_test ();
      crash_recover_test "recover.crash_recover_ido_ns" Scheme.Ido;
      crash_recover_test "recover.crash_recover_atlas_ns" Scheme.Atlas;
    ]

(* [run ~quota] spends about [quota] seconds on each test. *)
let run ~quota =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~stabilize:false () in
  List.map
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      let est =
        match Hashtbl.find_opt results (Test.name test) with
        | Some o -> ( match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> nan)
        | None -> nan
      in
      (Test.name test, est))
    (tests ())
