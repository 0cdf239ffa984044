open Ido_util
open Ido_nvm
open Ido_runtime
module Vm = Ido_vm.Vm

type scale = Quick | Full

let thread_counts = function
  | Quick -> [ 1; 2; 4; 8; 16; 32 ]
  | Full -> [ 1; 2; 4; 8; 16; 32; 64 ]

let micro_total_ops = function Quick -> 6_000 | Full -> 24_000
let app_total_ops = function Quick -> 4_000 | Full -> 16_000

module Spec = Spec

type run = {
  scheme : Scheme.t;
  mops : float;
  sim_ns : Timebase.ns;
  ops : int;
  fences : int;
  clwbs : int;
}

let boot ?(seed = 42) ?latency ?(collect_region_stats = false) ?(opt = false)
    scheme program =
  let base = Vm.config scheme in
  let cfg =
    {
      base with
      seed;
      latency = Option.value ~default:base.Vm.latency latency;
      collect_region_stats;
      opt;
    }
  in
  let m = Vm.create cfg program in
  Vm.run_init m;
  m

let spawn_workers m ~threads ~total_ops =
  let per = max 1 (total_ops / threads) in
  for _ = 1 to threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int per ])
  done

type profile = {
  prun : run;
  rollup : Ido_obs.Obs.rollup;
  fases : int;
  consistency : (unit, string) result;
}

(* The single measurement entry point.  [?program] overrides the
   registry program (the figures sweep custom-sized variants the
   registry does not name); the spec's [obs] flag decides whether the
   run carries an unbuffered observability sink reconciled against the
   pmem counters. *)
let measure ?program ?(opt = false) (s : Spec.t) =
  let program =
    match program with Some p -> p | None -> Spec.program s
  in
  let m =
    boot ~seed:s.Spec.seed ?latency:s.Spec.latency ~opt s.Spec.scheme program
  in
  let c0 = Pmem.counters (Vm.pmem m) in
  let fences0 = c0.Pmem.fences and clwbs0 = c0.Pmem.clwbs in
  let clock0 = Vm.clock m in
  (* Unbuffered sink: a profiling run only needs the rollups, so long
     sweeps stay constant-memory. *)
  let obs =
    if s.Spec.obs then (
      let obs = Ido_obs.Obs.create ~buffer:false () in
      Vm.set_obs m (Some obs);
      Some obs)
    else None
  in
  for _ = 1 to s.Spec.threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int s.Spec.ops ])
  done;
  (match Vm.run m with
  | `Idle -> ()
  | `Deadlock -> failwith "Exp: workload deadlocked"
  | _ -> failwith "Exp: workload did not finish");
  let consistency = Vm.obs_check m in
  Vm.set_obs m None;
  let sim_ns = Vm.clock m - clock0 in
  let ops = Vm.total_ops m in
  let c = Pmem.counters (Vm.pmem m) in
  {
    prun =
      {
        scheme = s.Spec.scheme;
        mops =
          (if sim_ns = 0 then 0.0
           else float_of_int ops /. float_of_int sim_ns *. 1000.0);
        sim_ns;
        ops;
        fences = c.Pmem.fences - fences0;
        clwbs = c.Pmem.clwbs - clwbs0;
      };
    rollup =
      (match obs with
      | Some obs -> Ido_obs.Obs.total obs
      | None -> Ido_obs.Obs.rollup_zero ());
    fases = (match obs with Some obs -> Ido_obs.Obs.fases obs | None -> 0);
    consistency;
  }

type crash_report = {
  crashed_at : Timebase.ns;
  recovery : Ido_vm.Recover.stats;
  check_ok : bool;
  check_count : int;
  undo_records : int;
}

let crash_check ?program ~crash_at (s : Spec.t) =
  let program =
    match program with Some p -> p | None -> Spec.program s
  in
  let m = boot ~seed:s.Spec.seed ?latency:s.Spec.latency s.Spec.scheme program in
  for _ = 1 to s.Spec.threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int s.Spec.ops ])
  done;
  let outcome = Vm.run ~until:crash_at m in
  (match outcome with
  | `Until | `Idle -> ()
  | `Deadlock -> failwith "Exp: workload deadlocked before crash"
  | `Max_steps -> failwith "Exp: step budget exhausted");
  let undo_records = Vm.undo_records_total m in
  let crashed_at = Vm.clock m in
  Vm.crash m;
  let recovery = Vm.recover m in
  let check = Vm.spawn m ~fname:"check" ~args:[] in
  let check_ok, check_count =
    match Vm.run m with
    | `Idle -> (
        match Vm.observations check with
        | [ n ] -> (true, Int64.to_int n)
        | _ -> (false, -1))
    | _ -> (false, -1)
    | exception Vm.Vm_error _ -> (false, -1)
  in
  { crashed_at; recovery; check_ok; check_count; undo_records }

let region_stats ?seed ~threads ~total_ops program =
  let m = boot ?seed ~collect_region_stats:true Scheme.Ido program in
  spawn_workers m ~threads ~total_ops;
  (match Vm.run m with
  | `Idle -> ()
  | _ -> failwith "Exp: region-stats run did not finish");
  Vm.region_stats m
