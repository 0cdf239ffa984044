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
  (match scheme with Scheme.Nvml -> workload = "objstore" | _ -> true)
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
    | None -> if workload = "objstore" then 1 else 3
  in
  let ops = Option.value ops ~default:60 in
  Ido_harness.Spec.check_positive "threads" threads;
  Ido_harness.Spec.check_positive "ops" ops;
  Ido_harness.Spec.check_positive "cache-lines" cache_lines;
  let oracle_mode =
    if strict then Oracle.Atomic
    else match scheme with Scheme.Origin -> Oracle.Prefix | _ -> Oracle.Atomic
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
    | None -> (
        match b.Ido_harness.Spec.scheme with
        | Scheme.Origin -> Oracle.Prefix
        | _ -> Oracle.Atomic)
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

(* Run the durable setup phase on a pristine machine.  The event hook
   is installed only after this returns, so recording and every
   injection run observe the same worker-phase schedule. *)
let boot_phases (c : custom) m =
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  (match Vm.run m with
  | `Idle -> ()
  | _ -> failwith "Engine.setup: init phase did not run to completion");
  Vm.flush_all m;
  for _ = 1 to c.c_threads do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ c.c_worker_arg ])
  done

let setup_custom (c : custom) =
  let m = Vm.create (custom_config c) c.c_program in
  boot_phases c m;
  m

let setup spec = setup_custom (custom_of_spec spec)

(* A reusable machine for batches of same-spec runs.  The first use
   pays [Vm.create] (validation, instrumentation, image build, the big
   pmem array); every later use is a [Vm.reset] — byte-identical
   semantics at a fraction of the cost.  Each pool worker chunk (and
   the whole serial path) keeps one arena, so machines are never
   shared across domains. *)
type arena = { a_custom : custom; mutable a_machine : Vm.t option }

let arena (c : custom) = { a_custom = c; a_machine = None }

let arena_setup a =
  match a.a_machine with
  | Some m ->
      Vm.reset m;
      boot_phases a.a_custom m;
      m
  | None ->
      let m = setup_custom a.a_custom in
      a.a_machine <- Some m;
      m

let finish_run m =
  match Vm.run m with
  | `Idle -> ()
  | `Deadlock -> failwith "Engine: worker phase deadlocked"
  | `Until | `Max_steps -> failwith "Engine: worker phase did not finish"

let record_on m =
  let evs = ref [] in
  Vm.set_event_hook m (Some (fun e -> evs := e :: !evs));
  finish_run m;
  Vm.set_event_hook m None;
  Array.of_list (List.rev !evs)

let record spec = record_on (setup spec)

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

(* The one crash-injection protocol: count crash-point events up to
   [index] and raise there (a run that ends first crashes at idle),
   power-fail, recover, make the image durable and [validate] it.
   Returns the description of the event the crash preceded ([None] at
   the terminal index) and the verdict. *)
let crash_and_recover m index ~validate =
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
  let verdict =
    (* A recovery that itself raises (bad log tag, failed scan) is a
       scheme defect at this crash point, not an engine failure. *)
    match Vm.recover m with
    | _stats ->
        Vm.flush_all m;
        validate m
    | exception e ->
        Error (Printf.sprintf "recovery raised: %s" (Printexc.to_string e))
  in
  (!crashed_event, verdict)

let inject_on m spec index =
  let validate = validate_now spec ~mode:spec.oracle_mode in
  let event, verdict = crash_and_recover m index ~validate in
  { index; event; verdict }

let check_index fn = function
  | Some k when k < 0 ->
      invalid_arg (Printf.sprintf "Engine.%s: negative crash index" fn)
  | _ -> ()

let inject spec index =
  check_index "inject" (Some index);
  inject_on (setup spec) spec index

let inject_arena a spec index =
  check_index "inject" (Some index);
  inject_on (arena_setup a) spec index

type report = {
  spec : spec;
  total_events : int;
  tested : int;
  exhaustive : bool;
  violations : injection list;
  counterexample : injection option;
}

let mode_name = function Oracle.Atomic -> "atomic" | Oracle.Prefix -> "prefix"

let repro_line spec index =
  Printf.sprintf
    "ido_check replay --scheme %s --workload %s --seed %d --threads %d \
     --ops %d --cache-lines %d --oracle %s --index %d%s"
    (Scheme.name spec.scheme) spec.workload spec.seed spec.threads spec.ops
    spec.cache_lines (mode_name spec.oracle_mode) index
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

(* Bound on the extra runs spent minimising a sampled counterexample. *)
let shrink_budget = 512

let shrink a spec ~tested_ok ~first_fail =
  let best = ref first_fail in
  let runs = ref 0 in
  (try
     for k = 0 to first_fail.index - 1 do
       if (not (Hashtbl.mem tested_ok k)) && !runs < shrink_budget then begin
         incr runs;
         let inj = inject_arena a spec k in
         match inj.verdict with
         | Error _ ->
             best := inj;
             raise Exit
         | Ok () -> Hashtbl.replace tested_ok k ()
       end
     done
   with Exit -> ());
  !best

let explore ?(progress = fun _ _ -> ()) ?pool ?(chunk = 0) spec ~budget =
  if budget < 1 then invalid_arg "Engine.explore: budget must be positive";
  if chunk < 0 then invalid_arg "Engine.explore: chunk must be >= 0";
  let c = custom_of_spec spec in
  let home = arena c in
  (* Harness sanity: a run that never crashes must satisfy the full
     model under every scheme, Origin included. *)
  (let m = arena_setup home in
   finish_run m;
   Vm.flush_all m;
   match validate_now spec ~mode:Oracle.Atomic m with
   | Ok () -> ()
   | Error msg ->
       failwith
         (Printf.sprintf "Engine.explore: crash-free %s/%s run fails oracle: %s"
            (Scheme.name spec.scheme) spec.workload msg));
  let schedule = record_on (arena_setup home) in
  let total = Array.length schedule in
  let indices, exhaustive = plan_indices spec ~total ~budget in
  let planned = Array.length indices in
  let tested_ok = Hashtbl.create (planned * 2) in
  let violations = ref [] in
  (* Injection runs share nothing (each chunk keeps a private arena
     machine), so they spread over the domain pool one future per
     chunk of consecutive indices, amortising dispatch overhead over
     [chunk] runs.  Results are merged in event-index order (awaits
     follow submission order), keeping the report — violations,
     shrinking, repro lines — byte-identical to the serial path at
     every [-j] and every chunk size. *)
  let injections =
    match pool with
    | Some pool when Pool.size pool > 1 ->
        let k =
          if chunk = 0 then Pool.default_chunk ~jobs:(Pool.size pool) planned
          else chunk
        in
        let nchunks = (planned + k - 1) / k in
        let futures =
          Array.init nchunks (fun ci ->
              let lo = ci * k in
              let len = min k (planned - lo) in
              Pool.submit pool (fun () ->
                  let a = arena c in
                  Array.init len (fun j -> inject_arena a spec indices.(lo + j))))
        in
        let done_count = ref 0 in
        let batches =
          Array.map
            (fun fut ->
              let batch = Pool.await fut in
              done_count := !done_count + Array.length batch;
              progress !done_count planned;
              batch)
            futures
        in
        Array.concat (Array.to_list batches)
    | _ ->
        Array.mapi
          (fun i k ->
            let inj = inject_arena home spec k in
            progress (i + 1) planned;
            inj)
          indices
  in
  Array.iter
    (fun inj ->
      match inj.verdict with
      | Ok () -> Hashtbl.replace tested_ok inj.index ()
      | Error _ -> violations := inj :: !violations)
    injections;
  let violations = List.rev !violations in
  let counterexample =
    match violations with
    | [] -> None
    | first :: _ ->
        Some
          (if exhaustive then first
           else shrink home spec ~tested_ok ~first_fail:first)
  in
  { spec; total_events = total; tested = planned; exhaustive; violations;
    counterexample }

let final_digest spec =
  let m = setup spec in
  finish_run m;
  Vm.flush_all m;
  digest_now spec m

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

(* One run with [obs] watching the worker phase, the injected crash (if
   any) and recovery; the sink is installed after durable setup, so
   [Vm.obs_check] reconciles exactly what it saw.  Returns the final
   machine too, for callers that digest its image. *)
let observe ?index ~obs (c : custom) =
  let m = setup_custom c in
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
  (m, { pr_index = index; pr_event; pr_verdict; pr_consistency })

let probe ?index ~obs c =
  check_index "probe" index;
  snd (observe ?index ~obs c)

let run_traced ?index spec =
  check_index "run_traced" index;
  let obs = Ido_obs.Obs.create () in
  let m, p =
    observe ?index ~obs
      { (custom_of_spec spec) with
        c_validate = validate_now spec ~mode:spec.oracle_mode }
  in
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
