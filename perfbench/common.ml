(* Shared vocabulary of the workloads: what one pass produces, timers,
   and the traced-section bookkeeping. *)

type size = Full | Toy  (** [Toy]: the seconds-long smoke size *)

(* One pass over a workload's fixed work list.  A run repeats passes
   and reports medians; the simulated outputs must be identical on
   every pass. *)
type round = {
  setup_s : float;  (** host CPU seconds of the pass's set-up calls *)
  measured_s : float;  (** host CPU seconds of the calls [units] count *)
  units : int;
  attempted : int;
  failed : int;
  sim_ns : float;  (** the workload's headline simulated quantity for iDO *)
  digest : string;  (** every simulated output of the pass *)
  errors : string list;  (** failed correctness checks *)
  info : (string * float * string) list;  (** extra printed quantities *)
}

(* A traced rebuild: the same work composed from each layer's public
   calls under spans, cross-checked against the entry points. *)
type traced = {
  t_attempted : int;
  t_failed : int;
  t_errors : string list;
  t_plain_s : float;  (** wall of the entry-point pass it is checked against *)
  t_metrics : (string * float) list;  (** workload-specific layer metrics *)
}

let elapsed_since t0 = Span.seconds_between t0 (Span.now_ns ())

let time f =
  let t0 = Span.now_ns () in
  let r = f () in
  (elapsed_since t0, r)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The benchmark's clock: CPU seconds (user + sys) of this process.  On
   a shared host the wall clock also counts time the process waits for
   a processor, which varies by a tenth from run to run; CPU time
   varies by a few hundredths.  Plain runs use one domain, so it is the
   work's own time.  Garbage collection is never forced: each cell pays
   for whatever collection its allocation triggers, as it does under
   the entry points. *)
let measure f =
  let c0 = cpu_now () in
  let r = f () in
  (cpu_now () -. c0, r)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set-up steps of a few milliseconds are timed [reps] times back to
   back and reported as their median, so one page fault or timer tick
   does not decide the sample. *)
let time_median ~reps f =
  median (List.init reps (fun _ -> fst (measure f)))

let check errors ok msg = if not ok then errors := msg :: !errors

let result_error what = function
  | Ok () -> None
  | Error msg -> Some (what ^ ": " ^ msg)

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let mem_of m =
  let pm = Ido_vm.Vm.pmem m in
  { Ido_workloads.Oracle.load = Ido_nvm.Pmem.load pm; size = Ido_nvm.Pmem.size pm }

let root_of m = Ido_region.Region.get_root (Ido_vm.Vm.region m) 0

(* The registry's builders with the registry's parameters, called afresh
   so set-up time includes program construction (the registry memoises
   its programs). *)
let build workload =
  let open Ido_workloads in
  Span.with_ "workloads.build" (fun () ->
      match workload with
      | "stack" -> Stack.program ()
      | "queue" -> Queue.program ()
      | "olist" -> Olist.program ()
      | "olistrm" -> Olist.program ~remove_pct:20 ()
      | "hmap" -> Hmap.program ()
      | "kvcache50" -> Kvcache.program ~insert_pct:50 ()
      | "kvcache10" -> Kvcache.program ~insert_pct:10 ()
      | "objstore" -> Objstore.program ()
      | "mlog" -> Mlog.program ()
      | w -> invalid_arg ("build: unknown workload " ^ w))

let instrument scheme program =
  Span.with_ "instrument" (fun () ->
      Ido_instrument.Instrument.instrument scheme program)

(* Host and GC activity over the traced section of a run. *)
type section = {
  wall_s : float;
  user_s : float;
  sys_s : float;
  minor : int;
  major : int;
  promoted_words : float;
  heap_top_words : int;
}

let last_section = ref None

let traced_section f =
  Span.reset ();
  Span.enabled := true;
  let g0 = Gc.quick_stat () and t0 = Unix.times () in
  let wall, r = Fun.protect ~finally:(fun () -> Span.enabled := false) (fun () -> time f) in
  let g1 = Gc.quick_stat () and t1 = Unix.times () in
  last_section :=
    Some
      {
        wall_s = wall;
        user_s = t1.Unix.tms_utime -. t0.Unix.tms_utime;
        sys_s = t1.Unix.tms_stime -. t0.Unix.tms_stime;
        minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        heap_top_words = g1.Gc.top_heap_words;
      };
  r
