open Ido_runtime

type t = State.t

type config = State.config = {
  scheme : Scheme.t;
  latency : Ido_nvm.Latency.t;
  pmem_words : int;
  cache_lines : int;
  seed : int;
  stack_words : int;
  undo_cap : int;
  redo_cap : int;
  page_cap : int;
  collect_region_stats : bool;
  opt : bool;
  elide_clean_boundaries : bool;
  coalesce_registers : bool;
  single_fence_locks : bool;
}

let config = State.default_config

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock ]

exception Vm_error = Interp.Vm_error

let create = Interp.create
let reset = Interp.reset

type thread = State.thread

let spawn = Interp.spawn
let run = Interp.run
let reap = Interp.reap
let crash = Interp.crash

type crash_image = Interp.crash_image

let crash_image = Interp.crash_image
let restore_crashed = Interp.restore_crashed

type boot_image = Interp.boot_image

let boot_image = Interp.boot_image
let restore_boot = Interp.restore_boot
let recover = Recover.recover

let flush_all (m : t) = Ido_nvm.Pmem.flush_all m.State.pmem

let run_init m =
  ignore (spawn m ~fname:"init" ~args:[]);
  (match run m with
  | `Idle -> ()
  | `Deadlock | `Until | `Max_steps ->
      failwith "Vm.run_init: init phase did not run to idle");
  flush_all m

let clock = State.max_clock
let total_ops (m : t) = m.State.total_ops
let observations (t : thread) = List.rev t.State.observations
let thread_clock (t : thread) = t.State.clock
let pmem (m : t) = m.State.pmem
let region (m : t) = m.State.region

let region_stats (m : t) = (m.State.stores_per_region, m.State.livein_per_region)

let set_tracer (m : t) f = m.State.tracer <- f

let set_event_hook (m : t) f =
  m.State.event_hook <- f;
  State.sync_pmem_hook m

let set_obs (m : t) o =
  m.State.obs <- o;
  m.State.obs_base <- State.counters_snapshot m.State.pmem;
  (* Reset the attribution context: machine-level until a thread steps. *)
  State.obs_context m ~tid:(-1) ~fase:(-1);
  State.sync_pmem_hook m

let obs_check (m : t) =
  match m.State.obs with
  | None -> Ok ()
  | Some o ->
      let c = Ido_nvm.Pmem.counters m.State.pmem and b = m.State.obs_base in
      Ido_obs.Obs.check o
        ~stores:(c.stores - b.stores)
        ~writebacks:(c.writebacks - b.writebacks)
        ~fences:(c.fences - b.fences)
        ~evictions:(c.evictions - b.evictions)

let undo_records_total (m : t) =
  let pm = m.State.pmem in
  let total = ref 0 in
  Lognode.iter pm m.State.region (fun node ->
      let k = Lognode.kind pm node in
      if k = Lognode.kind_atlas || k = Lognode.kind_nvml then
        total := !total + Undo_log.total pm node);
  !total
