(* sim-closed: the closed-loop Fig. 7 grid.  Each cell boots a machine
   (set-up), runs [threads] workers to completion (measured), and
   validates the durable structure against its oracle.  It loads the
   interpreter, the pmem overlay and the scheme runtime logs, and skips
   recovery, the pool and the serve layer. *)

open Ido_runtime
open Common
module Vm = Ido_vm.Vm
module Pmem = Ido_nvm.Pmem
module Obs = Ido_obs.Obs
module Exp = Ido_harness.Exp

let schemes = Scheme.[ Ido; Atlas; Mnemosyne; Justdo ]

type cell = { scheme : Scheme.t; workload : string; threads : int; ops : int }

let cells size =
  let total, thread_counts =
    match size with Full -> (1500, [ 1; 16 ]) | Toy -> (64, [ 1; 4 ])
  in
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun scheme ->
          List.map
            (fun threads ->
              { scheme; workload; threads; ops = max 1 (total / threads) })
            thread_counts)
        schemes)
    [ "stack"; "queue"; "hmap"; "olist" ]

let label c = Printf.sprintf "%s/%s/t%d" c.workload (Scheme.name c.scheme) c.threads

(* [Exp.measure]'s machine: the scheme's default configuration under
   the spec seed, init run to completion and made durable. *)
let boot ~seed c =
  let m =
    Span.with_ "vm.create" (fun () ->
        Vm.create { (Vm.config c.scheme) with seed } (Ido_workloads.Workload.named c.workload))
  in
  Span.with_ "vm.init" (fun () ->
      ignore (Vm.spawn m ~fname:"init" ~args:[]);
      (match Vm.run m with
      | `Idle -> ()
      | _ -> failwith (label c ^ ": init did not finish"));
      Vm.flush_all m);
  m

type counts = {
  loads : int;
  stores : int;
  clwbs : int;
  writebacks : int;
  fences : int;
  evictions : int;
}

let counts m =
  let k = Pmem.counters (Vm.pmem m) in
  {
    loads = k.Pmem.loads;
    stores = k.Pmem.stores;
    clwbs = k.Pmem.clwbs;
    writebacks = k.Pmem.writebacks;
    fences = k.Pmem.fences;
    evictions = k.Pmem.evictions;
  }

let delta a b =
  {
    loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    clwbs = b.clwbs - a.clwbs;
    writebacks = b.writebacks - a.writebacks;
    fences = b.fences - a.fences;
    evictions = b.evictions - a.evictions;
  }

type outcome = {
  cell : cell;
  sim_ns : int;
  ops : int;
  pmem : counts;
  boot_s : float;
  run_s : float;
  verdict : (unit, string) result;
  rollup : Obs.rollup option;
  consistency : (unit, string) result;
}

let run ?obs ~seed c =
  let boot_s, m = measure (fun () -> boot ~seed c) in
  let c0 = counts m and clock0 = Vm.clock m in
  Vm.set_obs m obs;
  let run_s, () =
    measure (fun () ->
        Span.with_ "vm.run" (fun () ->
            for _ = 1 to c.threads do
              ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int c.ops ])
            done;
            match Vm.run m with
            | `Idle -> ()
            | _ -> failwith (label c ^ ": workers did not finish")))
  in
  Vm.set_obs m None;
  let pmem = delta c0 (counts m) in
  let result =
    {
      cell = c;
      sim_ns = Vm.clock m - clock0;
      ops = Vm.total_ops m;
      pmem;
      boot_s;
      run_s;
      verdict = Ok ();
      rollup = Option.map Obs.total obs;
      consistency =
        (match obs with
        | None -> Ok ()
        | Some o ->
            Obs.check o ~stores:pmem.stores ~writebacks:pmem.writebacks
              ~fences:pmem.fences ~evictions:pmem.evictions);
    }
  in
  let verdict =
    Span.with_ "oracle" (fun () ->
        Vm.flush_all m;
        Ido_workloads.Oracle.validate ~workload:c.workload
          ~mode:Ido_workloads.Oracle.Atomic ~root:(root_of m) (mem_of m))
  in
  { result with verdict }

let digest results =
  String.concat ";"
    (List.map
       (fun r ->
         Printf.sprintf "%s:%d,%d,%d,%d" (label r.cell) r.sim_ns r.ops r.pmem.fences
           r.pmem.clwbs)
       results)

(* iDO's simulated ns per operation, geometric mean over its cells
   (the reciprocal of the Fig. 7 Mops). *)
let ido_ns_per_op results =
  geomean
    (List.filter_map
       (fun r ->
         if r.cell.scheme = Scheme.Ido then
           Some (float_of_int r.sim_ns /. float_of_int r.ops)
         else None)
       results)

let errors_of results =
  List.filter_map
    (fun r ->
      match result_error (label r.cell) r.verdict with
      | Some e -> Some e
      | None -> result_error (label r.cell ^ " obs") r.consistency)
    results

let round ~seed size =
  let results = List.map (run ~seed) (cells size) in
  let errors = errors_of results in
  let ns = ido_ns_per_op results in
  {
    setup_s = List.fold_left (fun a r -> a +. r.boot_s) 0.0 results;
    measured_s = List.fold_left (fun a r -> a +. r.run_s) 0.0 results;
    units = List.fold_left (fun a r -> a + r.ops) 0 results;
    attempted = List.length results;
    failed = List.length errors;
    sim_ns = ns;
    digest = digest results;
    errors;
    info = [ ("ido_sim_mops", 1000.0 /. ns, "Mops") ];
  }

let per_op scheme results f =
  let mine = List.filter (fun r -> r.cell.scheme = scheme) results in
  let ops = List.fold_left (fun a r -> a + r.ops) 0 mine in
  float_of_int (List.fold_left (fun a r -> a + f r) 0 mine) /. float_of_int (max 1 ops)

let layer_metrics results =
  let rollup r f = match r.rollup with Some x -> f x | None -> 0 in
  let run_s = List.fold_left (fun a r -> a +. r.run_s) 0.0 results in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
  let accesses r = r.pmem.loads + r.pmem.stores + r.pmem.clwbs + r.pmem.fences in
  [
    ("vm.sim_ops_per_host_s", sum (fun r -> r.ops) /. run_s);
    ("vm.pmem_accesses_per_host_s", sum accesses /. run_s);
  ]
  @ List.concat_map
      (fun s ->
        let p layer what f =
          (Printf.sprintf "%s.%s.%s_per_op" layer (Scheme.name s) what, per_op s results f)
        in
        [
          p "nvm" "stores" (fun r -> r.pmem.stores);
          p "nvm" "clwbs" (fun r -> r.pmem.clwbs);
          p "nvm" "writebacks" (fun r -> r.pmem.writebacks);
          p "nvm" "fences" (fun r -> r.pmem.fences);
          p "runtime" "log_appends" (fun r -> rollup r (fun x -> x.Obs.log_appends));
          p "runtime" "log_bytes" (fun r -> rollup r (fun x -> x.Obs.log_bytes));
        ])
      schemes
  @
  let ido f = per_op Scheme.Ido results (fun r -> rollup r f) in
  let boundaries = ido (fun x -> x.Obs.boundaries) in
  [
    ("runtime.ido.boundaries_per_op", boundaries);
    ("runtime.ido.elided_boundary_frac", ido (fun x -> x.Obs.elided_boundaries) /. boundaries);
  ]

(* The traced rebuild: per cell, program build and instrumentation (the
   steps [Vm.create] repeats internally), then boot, an observed run and
   the oracle.  Every cell must match [Exp.measure] exactly. *)
let trace ~seed size =
  let cells = cells size in
  let spec c =
    Exp.Spec.make ~seed ~scheme:c.scheme ~workload:c.workload ~threads:c.threads ~ops:c.ops ()
  in
  let plain_s, reference = time (fun () -> List.map (fun c -> Exp.measure (spec c)) cells) in
  let results =
    traced_section (fun () ->
        List.map
          (fun c ->
            Span.with_ "cell" (fun () ->
                ignore (instrument c.scheme (build c.workload));
                run ~obs:(Obs.create ~buffer:false ()) ~seed c))
          cells)
  in
  let mismatches =
    List.filter_map
      (fun (r, (p : Exp.profile)) ->
        let e = p.Exp.prun in
        if e.Exp.sim_ns = r.sim_ns && e.Exp.ops = r.ops && e.Exp.fences = r.pmem.fences
           && e.Exp.clwbs = r.pmem.clwbs
        then None
        else
          Some
            (Printf.sprintf
               "%s: composed cell (%d ns, %d ops, %d fences, %d clwbs) differs from \
                Exp.measure (%d, %d, %d, %d)"
               (label r.cell) r.sim_ns r.ops r.pmem.fences r.pmem.clwbs e.Exp.sim_ns e.Exp.ops
               e.Exp.fences e.Exp.clwbs))
      (List.combine results reference)
  in
  let errors = errors_of results @ mismatches in
  {
    t_attempted = List.length results;
    t_failed = List.length errors;
    t_errors = errors;
    t_plain_s = plain_s;
    t_metrics = layer_metrics results;
  }
