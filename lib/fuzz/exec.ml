open Ido_runtime
module Engine = Ido_check.Engine
module Mutate = Ido_lint.Mutate
module Obs = Ido_obs.Obs
module Oracle = Ido_workloads.Oracle
module Vm = Ido_vm.Vm

type failure = {
  f_codes : string list;
  f_detail : string;
}

type outcome = {
  o_input : Input.t;
  o_features : int array;
  o_schedule : int;
  o_failure : failure option;
  o_hints : int list;
}

let instrumented ?(opt = false) (input : Input.t) =
  let before, after =
    List.partition
      (fun e -> Mutate.edit_stage e = Mutate.Before_instrument)
      input.Input.edits
  in
  let src =
    List.fold_left
      (fun p e -> Mutate.apply_edit e p)
      (Input.source_program input) before
  in
  let p = Ido_instrument.Instrument.instrument ~opt input.Input.scheme src in
  List.fold_left (fun p e -> Mutate.apply_edit e p) p after

let dedup_sorted xs = List.sort_uniq compare xs

(* ---------- static path ---------- *)

let run_static ~opt (input : Input.t) =
  let scheme_name = Scheme.name input.Input.scheme in
  let shape = Input.base_to_string input.Input.base in
  match instrumented ~opt input with
  | exception (Failure msg | Invalid_argument msg) ->
      {
        o_input = input;
        o_features =
          Cov.static_features ~scheme:scheme_name ~codes:[ "F801" ] ~shape;
        o_schedule = 0;
        o_failure =
          Some { f_codes = [ "F801" ]; f_detail = msg };
        o_hints = [];
      }
  | p ->
      let diags =
        Ido_lint.Lint.lint_program ?variant:input.Input.variant
          input.Input.scheme p
      in
      let codes =
        dedup_sorted (List.map (fun d -> d.Ido_analysis.Diag.code) diags)
      in
      let o_failure =
        match diags with
        | [] -> None
        | d :: _ ->
            Some { f_codes = codes; f_detail = Ido_analysis.Diag.render d }
      in
      {
        o_input = input;
        o_features = Cov.static_features ~scheme:scheme_name ~codes ~shape;
        o_schedule = 0;
        o_failure;
        o_hints = [];
      }

(* ---------- dynamic path ---------- *)

let mem_of m =
  let pm = Vm.pmem m in
  { Oracle.load = Ido_nvm.Pmem.load pm; size = Ido_nvm.Pmem.size pm }

(* A random genome's seed: pure FNV of its textual form, so the VM
   schedule is stable across processes (no [Hashtbl.hash]). *)
let genome_seed base =
  let s = Input.base_to_string base in
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  1 + (!h mod 1000)

let custom_of_input ~opt (input : Input.t) =
  match input.Input.base with
  | Input.Workload workload ->
      Engine.custom_of_spec
        (Engine.defaults ~opt ~scheme:input.Input.scheme ~workload ())
  | Input.Random _ ->
      {
        Engine.c_program = Input.source_program input;
        c_scheme = input.Input.scheme;
        c_seed = genome_seed input.Input.base;
        c_cache_lines = (Vm.config input.Input.scheme).Vm.cache_lines;
        c_threads = 1;
        c_worker_arg = 0L;
        c_opt = opt;
        c_validate = (fun _ -> Ok ());
      }

let initial_heap = Array.init Input.cells (fun i -> Input.initial_cell i)

let heap_of m =
  let base = Int64.to_int (Engine.probe_root m) in
  Engine.heap_words m ~base ~len:Input.cells

let classify_verdict msg =
  let is_recovery =
    String.length msg >= 15 && String.sub msg 0 15 = "recovery raised"
  in
  if is_recovery then "F702" else "F701"

(* ---------- the campaign cache ---------- *)

(* What the crash-free probe of one (scheme, base, opt) establishes,
   which every input on that base shares: the probe's own failures, its
   features, the schedule length and hints, and a random genome's
   reference heap (the crashed probes' validator). *)
type record = {
  r_failures : (string * string) list;  (* (code, message) *)
  r_features : int array;
  r_schedule : int;
  r_hints : int list;
  r_reference : int64 array option;
}

(* Per base: its record, and the boot image of its arena.  No machine
   is kept: each run creates one (about 0.3 ms, a fraction of a setup
   phase) and restores the image into it, so the cache costs what the
   images do — about 2.4 MB for the 46 default pairs, against about
   17 MB with an idle machine per base.  Images are only read once
   taken, so any domain may restore one. *)
type cache = {
  lock : Mutex.t;
  records : (string, record) Hashtbl.t;
  images : (string, Vm.boot_image) Hashtbl.t;
}

let cache () =
  {
    lock = Mutex.create ();
    records = Hashtbl.create 64;
    images = Hashtbl.create 64;
  }

let base_key ~opt (input : Input.t) =
  Printf.sprintf "%s/%b/%s" (Scheme.name input.Input.scheme) opt
    (Input.base_to_string input.Input.base)

let find c tbl key = Mutex.protect c.lock (fun () -> Hashtbl.find_opt tbl key)
let add c tbl key v = Mutex.protect c.lock (fun () -> Hashtbl.replace tbl key v)

(* Run [f] on an arena for the base, booting from the base's image when
   the cache has it, and keep the image of a first boot. *)
let with_arena c key custom f =
  let boot = find c c.images key in
  let a = Engine.arena ?boot custom in
  Fun.protect
    ~finally:(fun () ->
      match (boot, Engine.arena_image a) with
      | None, Some image -> add c c.images key image
      | _ -> ())
    (fun () -> f a)

(* ---------- dynamic evaluation ---------- *)

let construction_failed input msg =
  {
    o_input = input;
    o_features = [||];
    o_schedule = 0;
    o_failure = Some { f_codes = [ "F801" ]; f_detail = msg };
    o_hints = [];
  }

(* A probe's failures, in report order: the verdict's code, then F703. *)
let probe_failures (p : Engine.probe) =
  (match p.Engine.pr_verdict with
  | Ok () -> []
  | Error msg -> [ (classify_verdict msg, msg) ])
  @
  match p.Engine.pr_consistency with
  | Ok () -> []
  | Error msg -> [ ("F703", msg) ]

let outcome_of input (r : record) ~features crashed =
  let failures = r.r_failures @ List.concat_map probe_failures crashed in
  let o_failure =
    match failures with
    | [] -> None
    | (_, detail) :: _ ->
        Some { f_codes = dedup_sorted (List.map fst failures); f_detail = detail }
  in
  {
    o_input = input;
    o_features = features;
    o_schedule = r.r_schedule;
    o_failure;
    o_hints = r.r_hints;
  }

let run_dynamic ~cache ~opt (input : Input.t) =
  let scheme_name = Scheme.name input.Input.scheme in
  let key = base_key ~opt input in
  (* For workload bases the registry oracle is the validator; for
     random genomes the reference heap of the crash-free run is, with
     the untouched initial heap also legal (FASE never started). *)
  let mode = Oracle.default_mode input.Input.scheme in
  let validate ~reference m =
    match input.Input.base with
    | Input.Workload workload ->
        Oracle.validate ~workload ~mode ~root:(Engine.probe_root m) (mem_of m)
    | Input.Random _ -> (
        let got = heap_of m in
        match reference with
        | Some r when got = r || got = initial_heap -> Ok ()
        | Some _ -> Error "torn heap: neither reference nor initial state"
        | None -> Error "internal: reference heap missing")
  in
  (* One accumulator for the whole candidate: every probe streams its
     events into it through the sink's tap, none is buffered. *)
  let acc = Cov.acc ~scheme:scheme_name in
  let sink tap = Obs.create ~buffer:false ~tap () in
  (* A base's first run is its crash-free probe.  Its tap derives the
     crash-point schedule — its length and the indices of fence/lock
     events, where boundary persists and FASE transitions happen, the
     reseeding frontier for the mutator — exactly as a separate
     recording run would see it (see [Engine.probe]). *)
  let record_base arena custom =
    let len = ref 0 and hints = ref [] in
    let schedule (ev : Obs.event) =
      Cov.observe acc ev;
      if Obs.crash_point ev.Obs.kind then begin
        (match ev.Obs.kind with
        | Obs.Fence _ | Obs.Lock_acquire _ | Obs.Lock_release _ ->
            hints := !len :: !hints
        | _ -> ());
        incr len
      end
    in
    let reference = ref None in
    let validate_crash_free m =
      match input.Input.base with
      | Input.Workload _ -> validate ~reference:None m
      | Input.Random _ ->
          reference := Some (heap_of m);
          Ok ()
    in
    let free =
      Engine.probe ~arena ~obs:(sink schedule)
        { custom with Engine.c_validate = validate_crash_free }
    in
    let r =
      {
        r_failures = probe_failures free;
        r_features = Cov.collect acc;
        r_schedule = !len;
        r_hints = List.rev !hints;
        r_reference = !reference;
      }
    in
    add cache cache.records key r;
    r
  in
  (* Each crashed probe restores a crash image of the base's forward
     run and streams only what follows the crash point, as fresh runs:
     no post-crash event continues a pre-crash stream (crash and
     recovery are machine-level, tid -1, which the worker phase never
     uses, and resumed threads get fresh tids), and the prefix's
     features are among the record's. *)
  let crashed_sink () =
    Cov.new_run acc;
    sink (Cov.observe acc)
  in
  match find cache cache.records key with
  | Some r when input.Input.crashes = [] ->
      outcome_of input r ~features:r.r_features []
  | known -> (
      match
        let custom = custom_of_input ~opt input in
        with_arena cache key custom (fun arena ->
            let r =
              match known with
              | Some r -> r
              | None -> record_base arena custom
            in
            ( r,
              Engine.crashed_probes ~arena ~length:r.r_schedule
                ~at:input.Input.crashes ~obs:crashed_sink
                ~validate:(validate ~reference:r.r_reference) ))
      with
      | exception (Failure msg | Invalid_argument msg) ->
          construction_failed input msg
      | r, crashed ->
          Cov.merge acc r.r_features;
          outcome_of input r ~features:(Cov.collect acc) crashed)

let run ?(cache = cache ()) ?(opt = false) input =
  if Input.static_only input then run_static ~opt input
  else run_dynamic ~cache ~opt input

let primary_code o =
  match o.o_failure with
  | None -> None
  | Some f -> ( match f.f_codes with [] -> None | c :: _ -> Some c)
