open Ido_util
open Ido_runtime
open Ido_vm
open Ido_workloads

type spec = {
  scheme : Scheme.t;
  workload : string;
  seed : int;
  threads : int;
  ops : int;
  cache_lines : int;
  oracle_mode : Oracle.mode;
  opt : bool;
}

let supported scheme workload =
  (match (Scheme.props scheme).workloads with
  | Some only -> List.mem workload only
  | None -> true)
  && Oracle.known workload

let defaults ?threads ?ops ?(cache_lines = 4096) ?(strict = false) ?(seed = 42)
    ?(opt = false) ~scheme ~workload () =
  if not (List.mem workload Workload.names) then
    invalid_arg ("Engine.defaults: unknown workload " ^ workload);
  if not (supported scheme workload) then
    invalid_arg
      (Printf.sprintf "Engine.defaults: %s does not support %s"
         (Scheme.name scheme) workload);
  let threads =
    match threads with
    | Some t -> t
    | None -> if (Workload.get workload).single_threaded then 1 else 3
  in
  let ops = Option.value ops ~default:60 in
  Ido_harness.Spec.check_positive "threads" threads;
  Ido_harness.Spec.check_positive "ops" ops;
  Ido_harness.Spec.check_positive "cache-lines" cache_lines;
  let oracle_mode =
    if strict then Oracle.Atomic else Oracle.default_mode scheme
  in
  { scheme; workload; seed; threads; ops; cache_lines; oracle_mode; opt }

(* Conversions to/from the harness {!Ido_harness.Spec.t}: the five
   serialisable fields are shared; the engine adds cache geometry and
   the oracle strictness. *)
let base_spec (s : spec) : Ido_harness.Spec.t =
  Ido_harness.Spec.make ~seed:s.seed ~obs:true ~scheme:s.scheme
    ~workload:s.workload ~threads:s.threads ~ops:s.ops ()

let of_base ?(cache_lines = 4096) ?oracle_mode ?(opt = false)
    (b : Ido_harness.Spec.t) : spec =
  Ido_harness.Spec.check_positive "threads" b.Ido_harness.Spec.threads;
  Ido_harness.Spec.check_positive "ops" b.Ido_harness.Spec.ops;
  Ido_harness.Spec.check_positive "cache-lines" cache_lines;
  let oracle_mode =
    match oracle_mode with
    | Some m -> m
    | None -> Oracle.default_mode b.Ido_harness.Spec.scheme
  in
  {
    scheme = b.Ido_harness.Spec.scheme;
    workload = b.Ido_harness.Spec.workload;
    seed = b.Ido_harness.Spec.seed;
    threads = b.Ido_harness.Spec.threads;
    ops = b.Ido_harness.Spec.ops;
    cache_lines;
    oracle_mode;
    opt;
  }

(* A custom run: the same machine lifecycle, injection protocol and
   obs window as a spec-described run, but over a caller-supplied
   program and validation closure.  The fuzzer drives generated
   programs through exactly the engine's crash machinery this way. *)
type custom = {
  c_program : Ido_ir.Ir.program;
  c_scheme : Scheme.t;
  c_seed : int;
  c_cache_lines : int;
  c_threads : int;
  c_worker_arg : int64;
  c_opt : bool;
  c_validate : Ido_vm.Vm.t -> (unit, string) result;
}

let custom_of_spec (s : spec) =
  {
    c_program = Workload.named s.workload;
    c_scheme = s.scheme;
    c_seed = s.seed;
    c_cache_lines = s.cache_lines;
    c_threads = s.threads;
    c_worker_arg = Int64.of_int s.ops;
    c_opt = s.opt;
    c_validate = (fun _ -> Ok ());
  }

let custom_config (c : custom) =
  { (Vm.config c.c_scheme) with
    seed = c.c_seed;
    cache_lines = c.c_cache_lines;
    opt = c.c_opt;
    (* Each injection run starts from a pristine machine; the bounded
       check workloads fit comfortably in 1M words. *)
    pmem_words = 1 lsl 20 }

(* Start the worker phase on a set-up machine.  The event hook is
   installed only after this returns, so recording, forward and
   from-boot injection runs observe the same worker-phase schedule.
   Each worker's stack and log come from the persistent region, and
   running out of it is the only [Failure] a spawn raises: too many
   threads is a spec error, reported with the count that fit. *)
let spawn_workers (c : custom) m =
  for i = 1 to c.c_threads do
    match Vm.spawn m ~fname:"worker" ~args:[ c.c_worker_arg ] with
    | _ -> ()
    | exception Failure _ ->
        invalid_arg
          (Printf.sprintf
             "threads must be <= %d (got %d): the persistent region has no \
              room for more workers"
             (i - 1) c.c_threads)
  done

(* A reusable machine for batches of same-spec runs.  The first boot
   pays [Vm.create] (validation, instrumentation, image build) and the
   durable setup phase, and keeps a boot image of the set-up machine;
   every later boot restores that image — byte-identical semantics,
   with no setup re-run — and a restore from a crash image needs no
   boot at all.  The explorer keeps one arena for its counting and
   forward runs and one for restores, both on the calling domain. *)
type arena = {
  a_custom : custom;
  mutable a_machine : Vm.t option;
  mutable a_boot : Vm.boot_image option;
}

let arena ?boot (c : custom) = { a_custom = c; a_machine = None; a_boot = boot }
let arena_image a = a.a_boot

let arena_machine a =
  match a.a_machine with
  | Some m -> m
  | None ->
      let m = Vm.create (custom_config a.a_custom) a.a_custom.c_program in
      a.a_machine <- Some m;
      m

(* Every boot in this process, counted so a test can tell how many
   machines a caller's runs set up and how many it restored. *)
type boots = { full : int; restored : int }

let full_boots = Atomic.make 0
let restored_boots = Atomic.make 0

let boots () =
  { full = Atomic.get full_boots; restored = Atomic.get restored_boots }

let run_init m =
  Atomic.incr full_boots;
  Vm.run_init m

(* An arena boots before anything is restored into it, so one with no
   image boots a fresh machine. *)
let arena_boot a =
  let m = arena_machine a in
  (match a.a_boot with
  | Some image ->
      Vm.restore_boot m image;
      Atomic.incr restored_boots
  | None ->
      run_init m;
      a.a_boot <- Some (Vm.boot_image m));
  spawn_workers a.a_custom m;
  m

(* A fresh machine, booted once: no arena, so no boot image to copy
   out. *)
let setup_custom c =
  let m = Vm.create (custom_config c) c.c_program in
  run_init m;
  spawn_workers c m;
  m

let setup spec = setup_custom (custom_of_spec spec)

let finish_run m =
  match Vm.run m with
  | `Idle -> ()
  | `Deadlock -> failwith "Engine: worker phase deadlocked"
  | `Until | `Max_steps -> failwith "Engine: worker phase did not finish"

(* Finish the worker phase with [f] seeing every crash-point event.
   The hook does not perturb the run. *)
let finish_observed m f =
  Vm.set_event_hook m (Some f);
  finish_run m;
  Vm.set_event_hook m None

let record spec =
  let evs = Vec.create () in
  finish_observed (setup spec) (Vec.push evs);
  Vec.to_array evs

let mem_of m =
  let pm = Vm.pmem m in
  { Oracle.load = Ido_nvm.Pmem.load pm; size = Ido_nvm.Pmem.size pm }

let probe_root m = Ido_region.Region.get_root (Vm.region m) 0

let validate_now spec ~mode m =
  Oracle.validate ~workload:spec.workload ~mode ~root:(probe_root m) (mem_of m)

let digest_now spec m =
  Oracle.digest ~workload:spec.workload ~root:(probe_root m) (mem_of m)

type injection = {
  index : int;
  event : string option;
  verdict : (unit, string) result;
}

exception Crash_injected

(* The from-boot crash: count crash-point events up to [index] and
   raise there (a run that ends first crashes at idle), then
   power-fail.  Returns the description of the event the crash
   preceded ([None] at the terminal index). *)
let crash_at m index =
  let count = ref 0 in
  let crashed_event = ref None in
  Vm.set_event_hook m
    (Some
       (fun e ->
         if !count = index then begin
           crashed_event := Some (Ido_obs.Obs.describe e);
           raise Crash_injected
         end;
         incr count));
  (try finish_run m with Crash_injected -> ());
  (* Recovery itself generates pmem traffic; stop observing before it
     starts or the injected crash would fire again. *)
  Vm.set_event_hook m None;
  Vm.crash m;
  !crashed_event

(* Recover a crashed machine, make the image durable and [validate]
   it: the tail every injection path shares. *)
let recover_checked m ~validate =
  (* A recovery that itself raises (bad log tag, failed scan) is a
     scheme defect at this crash point, not an engine failure. *)
  match Vm.recover m with
  | stats ->
      Vm.flush_all m;
      (Some stats, validate m)
  | exception e ->
      (None, Error (Printf.sprintf "recovery raised: %s" (Printexc.to_string e)))

let crash_and_recover m index ~validate =
  let event = crash_at m index in
  (event, snd (recover_checked m ~validate))

(* Finish the worker phase of the booted [m], capturing at each of
   [indices] (ascending, distinct) the instant a crash there strikes:
   just before event [k] takes effect, the instant at which [crash_at]
   raises, or at idle for a [k] past the end of the run.  [take event]
   copies out what the caller needs of that instant ([event]: the
   description of the event the crash precedes, [None] at idle) and
   must leave the run undisturbed, as {!Vm.crash_image} does; one take
   at idle serves every index past the end.  [f k taken] then consumes
   it and may raise to stop the run.  The one capture loop of the
   explorer and of the fuzzer's crashed probes. *)
let capture_each m indices ~take f =
  let n = Array.length indices in
  let next = ref 0 and count = ref 0 in
  let capture taken =
    f indices.(!next) taken;
    incr next
  in
  Fun.protect
    ~finally:(fun () -> Vm.set_event_hook m None)
    (fun () ->
      Vm.set_event_hook m
        (Some
           (fun e ->
             if !next < n && indices.(!next) = !count then
               capture (take (Some (Ido_obs.Obs.describe e)));
             incr count));
      finish_run m);
  if !next < n then begin
    let idle = take None in
    while !next < n do
      capture idle
    done
  end

(* Crash at each of [indices] (ascending) from one forward run of a
   freshly booted [home] machine.  Each image is restored into
   [target]'s machine (a restore needs no boot) as soon as it is taken,
   so one image is held at a time, and [f k event m] then recovers and
   checks the restored [m]; [f] may raise to stop the run. *)
let restore_each ~home ~target indices f =
  if Array.length indices > 0 then begin
    let m = arena_boot home in
    capture_each m indices
      ~take:(fun event -> (event, Vm.crash_image m))
      (fun k (event, image) ->
        let r = arena_machine target in
        Vm.restore_crashed r image;
        f k event r)
  end

(* Recover the crashed [m] and check it against the spec's oracle. *)
let recovered spec m index event =
  let stats, verdict =
    recover_checked m ~validate:(validate_now spec ~mode:spec.oracle_mode)
  in
  ({ index; event; verdict }, stats)

type outcome = {
  o_injection : injection;
  o_stats : Recover.stats option;
  o_digest : string;
  o_clock : Timebase.ns;
}

let outcome_of spec m index event =
  let o_injection, o_stats = recovered spec m index event in
  { o_injection; o_stats; o_digest = digest_now spec m; o_clock = Vm.clock m }

let check_index fn = function
  | Some k when k < 0 ->
      invalid_arg (Printf.sprintf "Engine.%s: negative crash index" fn)
  | _ -> ()

let inject_outcomes spec indices =
  Array.iter (fun k -> check_index "inject" (Some k)) indices;
  let a = arena (custom_of_spec spec) in
  Array.map
    (fun k ->
      let m = arena_boot a in
      let event = crash_at m k in
      outcome_of spec m k event)
    indices

let inject spec index =
  check_index "inject" (Some index);
  let m = setup spec in
  fst (recovered spec m index (crash_at m index))

let restored_outcomes spec indices =
  Array.iteri
    (fun i k ->
      if k < 0 || (i > 0 && k <= indices.(i - 1)) then
        invalid_arg "Engine.restored_outcomes: indices must ascend from 0")
    indices;
  let c = custom_of_spec spec in
  let out = ref [] in
  restore_each ~home:(arena c) ~target:(arena c) indices (fun k event m ->
      out := outcome_of spec m k event :: !out);
  Array.of_list (List.rev !out)

type report = {
  spec : spec;
  total_events : int;
  tested : int;
  exhaustive : bool;
  violations : injection list;
  counterexample : injection option;
}

let repro_line spec index =
  Printf.sprintf
    "ido_check replay --scheme %s --workload %s --seed %d --threads %d \
     --ops %d --cache-lines %d --oracle %s --index %d%s"
    (Scheme.name spec.scheme) spec.workload spec.seed spec.threads spec.ops
    spec.cache_lines (Oracle.mode_name spec.oracle_mode) index
    (if spec.opt then " --opt" else "")

(* Crash indices to visit: ascending, so the first violation of an
   exhaustive run is already minimal.  Sampled mode picks one index
   per stratum of a [budget]-way split of [0, total]; the picks come
   from a generator derived from the spec seed, making the sample (and
   hence the whole report) reproducible. *)
let plan_indices spec ~total ~budget =
  let candidates = total + 1 in
  if candidates <= budget then (Array.init candidates (fun i -> i), true)
  else begin
    let rng = Rng.create (Hashtbl.hash (spec.seed, spec.ops, "ido-check-plan")) in
    let picks =
      Array.init budget (fun s ->
          let lo = s * candidates / budget in
          let hi = ((s + 1) * candidates / budget) - 1 in
          lo + Rng.int rng (hi - lo + 1))
    in
    (picks, false)
  end

(* Bound on the extra injections spent minimising a sampled
   counterexample. *)
let shrink_budget = 512

(* Shrink a sampled counterexample: try the untested indices below the
   first failure, ascending and at most [shrink_budget] of them, in one
   forward run that stops at the first failing one. *)
let shrink ~home ~target spec ~tested_ok ~first_fail =
  let below = ref [] and n = ref 0 in
  for k = 0 to first_fail.index - 1 do
    if (not (Hashtbl.mem tested_ok k)) && !n < shrink_budget then begin
      below := k :: !below;
      incr n
    end
  done;
  let best = ref first_fail in
  (try
     restore_each ~home ~target
       (Array.of_list (List.rev !below))
       (fun k event m ->
         let inj = fst (recovered spec m k event) in
         if Result.is_error inj.verdict then begin
           best := inj;
           raise Exit
         end)
   with Exit -> ());
  !best

let explore ?(progress = fun _ _ -> ()) ?pool:_ spec ~budget =
  if budget < 1 then invalid_arg "Engine.explore: budget must be positive";
  let c = custom_of_spec spec in
  (* [home] runs the counting and forward runs; [target] takes the
     restores. *)
  let home = arena c and target = arena c in
  let total =
    let m = arena_boot home in
    let n = ref 0 in
    finish_observed m (fun _ -> incr n);
    (* Harness sanity: a run that never crashes must satisfy the full
       model under every scheme, Origin included; the counting run's
       end state is the crash-free one. *)
    Vm.flush_all m;
    (match validate_now spec ~mode:Oracle.Atomic m with
    | Ok () -> ()
    | Error msg ->
        failwith
          (Printf.sprintf
             "Engine.explore: crash-free %s/%s run fails oracle: %s"
             (Scheme.name spec.scheme) spec.workload msg));
    !n
  in
  let indices, exhaustive = plan_indices spec ~total ~budget in
  let planned = Array.length indices in
  (* One forward run captures the crash image of every planned index in
     ascending order; each injection is then a restore, recovery and
     validation.  All of it stays on the calling domain: the forward run
     is serial, and restoring each image in place measured faster than
     handing images to pool workers. *)
  let injections =
    let out = ref [] and done_count = ref 0 in
    restore_each ~home ~target indices (fun k event m ->
        out := fst (recovered spec m k event) :: !out;
        incr done_count;
        progress !done_count planned);
    Array.of_list (List.rev !out)
  in
  let tested_ok = Hashtbl.create (planned * 2) in
  let violations =
    Array.fold_right
      (fun inj acc ->
        match inj.verdict with
        | Ok () ->
            Hashtbl.replace tested_ok inj.index ();
            acc
        | Error _ -> inj :: acc)
      injections []
  in
  let counterexample =
    match violations with
    | [] -> None
    | first :: _ ->
        Some
          (if exhaustive then first
           else shrink ~home ~target spec ~tested_ok ~first_fail:first)
  in
  { spec; total_events = total; tested = planned; exhaustive; violations;
    counterexample }

(* ---------- Observed runs ---------- *)

type traced = {
  t_spec : spec;
  t_index : int option;
  t_injection : injection option;
  t_digest : string;
  t_obs : Ido_obs.Obs.t;
  t_consistency : (unit, string) result;
}

type probe = {
  pr_index : int option;
  pr_event : string option;
  pr_verdict : (unit, string) result;
  pr_consistency : (unit, string) result;
}

(* One run of the booted [m] with [obs] watching the worker phase, the
   injected crash (if any) and recovery; the sink is installed after
   durable setup, so [Vm.obs_check] reconciles exactly what it saw. *)
let observe_on ?index ~obs (c : custom) m =
  Vm.set_obs m (Some obs);
  let pr_event, pr_verdict =
    match index with
    | None ->
        finish_run m;
        Vm.flush_all m;
        (None, c.c_validate m)
    | Some k -> crash_and_recover m k ~validate:c.c_validate
  in
  let pr_consistency = Vm.obs_check m in
  Vm.set_obs m None;
  { pr_index = index; pr_event; pr_verdict; pr_consistency }

let probe ?arena ?index ~obs c =
  check_index "probe" index;
  let m = match arena with Some a -> arena_boot a | None -> setup_custom c in
  observe_on ?index ~obs c m

exception Captured_all

let crashed_probes ~arena ~length ~at ~obs ~validate =
  let resolved = List.map (fun c -> c mod (length + 1)) at in
  List.iter (fun k -> check_index "crashed_probes" (Some k)) resolved;
  let indices = Array.of_list (List.sort_uniq compare resolved) in
  let n = Array.length indices in
  if n = 0 then []
  else begin
    let m = arena_boot arena in
    (* The window opens where [probe]'s does, after durable setup; the
       forward sink observes its prefix up to each crash point. *)
    let base =
      let k = Ido_nvm.Pmem.counters (Vm.pmem m) in
      { k with loads = k.loads }
    in
    let forward = Ido_obs.Obs.create ~buffer:false () in
    let captured = Hashtbl.create n in
    Vm.set_obs m (Some forward);
    (try
       capture_each m indices
         ~take:(fun event ->
           let r = Ido_obs.Obs.total forward in
           (event, Vm.crash_image m, { r with stores = r.stores }))
         (fun k cp ->
           Hashtbl.replace captured k cp;
           if k = indices.(n - 1) then raise Captured_all)
     with Captured_all -> ());
    Vm.set_obs m None;
    List.map
      (fun index ->
        let event, image, prior = Hashtbl.find captured index in
        Vm.restore_crashed m image;
        let sink = obs () in
        Vm.set_obs m (Some sink);
        (* The event [Vm.crash] emits and a restore does not. *)
        Ido_obs.Obs.emit sink ~tid:(-1) ~fase:(-1) Ido_obs.Obs.Crash;
        let pr_verdict = snd (recover_checked m ~validate) in
        (* The window runs from the forward run's boot: its prefix is in
           [prior], the restored part in [sink]. *)
        let k = Ido_nvm.Pmem.counters (Vm.pmem m) in
        let pr_consistency =
          Ido_obs.Obs.check ~prior sink
            ~stores:(k.stores - base.stores)
            ~writebacks:(k.writebacks - base.writebacks)
            ~fences:(k.fences - base.fences)
            ~evictions:(k.evictions - base.evictions)
        in
        Vm.set_obs m None;
        { pr_index = Some index; pr_event = event; pr_verdict; pr_consistency })
      resolved
  end

let run_traced ?index spec =
  check_index "run_traced" index;
  let obs = Ido_obs.Obs.create () in
  let c =
    { (custom_of_spec spec) with
      c_validate = validate_now spec ~mode:spec.oracle_mode }
  in
  let m = setup_custom c in
  let p = observe_on ?index ~obs c m in
  {
    t_spec = spec;
    t_index = index;
    t_injection =
      Option.map
        (fun k -> { index = k; event = p.pr_event; verdict = p.pr_verdict })
        index;
    t_digest = digest_now spec m;
    t_obs = obs;
    t_consistency = p.pr_consistency;
  }

let heap_words (m : Ido_vm.Vm.t) ~base ~len =
  let pm = Vm.pmem m in
  Array.init len (fun i -> Ido_nvm.Pmem.load pm (base + i))
