open Ido_runtime
module Engine = Ido_check.Engine
module Mutate = Ido_lint.Mutate
module Obs = Ido_obs.Obs
module Oracle = Ido_workloads.Oracle
module Vm = Ido_vm.Vm

type failure = {
  f_codes : string list;
  f_detail : string;
  f_crash : int option;
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
          Some { f_codes = [ "F801" ]; f_detail = msg; f_crash = None };
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
            Some
              {
                f_codes = codes;
                f_detail = Ido_analysis.Diag.render d;
                f_crash = None;
              }
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

let run_dynamic ~opt (input : Input.t) =
  let scheme_name = Scheme.name input.Input.scheme in
  (* For workload bases the registry oracle is the validator; for
     random genomes the reference heap of the crash-free run is, with
     the untouched initial heap also legal (FASE never started). *)
  let reference = ref None in
  let mode = Oracle.default_mode input.Input.scheme in
  let validate_crash_free m =
    match input.Input.base with
    | Input.Workload workload ->
        Oracle.validate ~workload ~mode ~root:(Engine.probe_root m) (mem_of m)
    | Input.Random _ ->
        reference := Some (heap_of m);
        Ok ()
  in
  let validate_crashed m =
    match input.Input.base with
    | Input.Workload workload ->
        Oracle.validate ~workload ~mode ~root:(Engine.probe_root m) (mem_of m)
    | Input.Random _ -> (
        let got = heap_of m in
        match !reference with
        | Some r when got = r || got = initial_heap -> Ok ()
        | Some _ -> Error "torn heap: neither reference nor initial state"
        | None -> Error "internal: reference heap missing")
  in
  match custom_of_input ~opt input with
  | exception (Failure msg | Invalid_argument msg) ->
      {
        o_input = input;
        o_features = [||];
        o_schedule = 0;
        o_failure =
          Some { f_codes = [ "F801" ]; f_detail = msg; f_crash = None };
        o_hints = [];
      }
  | base_custom -> (
      (* One accumulator for the whole candidate: every probe streams
         its events into it through the sink's tap, none is buffered.
         The crash-free probe's tap also derives the crash-point
         schedule — its length and the indices of fence/lock events,
         where boundary persists and FASE transitions happen, the
         reseeding frontier for the mutator — exactly as a separate
         recording run would see it (see [Engine.probe]).  The same
         run captures a crash image, with the accumulator's stream
         state, at every crash point of the input it reaches; each
         such crashed probe restores its image and continues the
         streams from there.  Only a crash point past the schedule,
         wrapped modulo its length + 1 onto an index no other crash
         point captured, re-runs from boot. *)
      let acc = Cov.acc ~scheme:scheme_name in
      let len = ref 0 in
      let hints = ref [] in
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
      let sink tap = Obs.create ~buffer:false ~tap () in
      let crashed_sink snap =
        (match snap with
        | Some s -> Cov.restore acc s
        | None -> Cov.new_run acc);
        sink (Cov.observe acc)
      in
      match
        let free, forward =
          Engine.probe_forward ~obs:(sink schedule) ~at:input.Input.crashes
            ~snap:(fun () -> Cov.snapshot acc)
            { base_custom with Engine.c_validate = validate_crash_free }
        in
        let crashed =
          List.map
            (fun c ->
              let index = c mod (!len + 1) in
              ( index,
                Engine.probe_crashed forward ~index ~obs:crashed_sink
                  ~validate:validate_crashed ))
            input.Input.crashes
        in
        (free, crashed)
      with
      | exception (Failure msg | Invalid_argument msg) ->
          {
            o_input = input;
            o_features = [||];
            o_schedule = 0;
            o_failure =
              Some { f_codes = [ "F801" ]; f_detail = msg; f_crash = None };
            o_hints = [];
          }
      | free, crashed ->
          let failures = ref [] in
          let consider crash (p : Engine.probe) =
            (match p.Engine.pr_verdict with
            | Ok () -> ()
            | Error msg ->
                failures :=
                  (classify_verdict msg, msg, crash) :: !failures);
            match p.Engine.pr_consistency with
            | Ok () -> ()
            | Error msg -> failures := ("F703", msg, crash) :: !failures
          in
          consider None free;
          List.iter (fun (index, p) -> consider (Some index) p) crashed;
          let failures = List.rev !failures in
          let o_failure =
            match failures with
            | [] -> None
            | (_, detail, crash) :: _ ->
                Some
                  {
                    f_codes =
                      dedup_sorted (List.map (fun (c, _, _) -> c) failures);
                    f_detail = detail;
                    f_crash = crash;
                  }
          in
          {
            o_input = input;
            o_features = Cov.collect acc;
            o_schedule = !len;
            o_failure;
            o_hints = List.rev !hints;
          })

let run ?(opt = false) input =
  if Input.static_only input then run_static ~opt input
  else run_dynamic ~opt input

let primary_code o =
  match o.o_failure with
  | None -> None
  | Some f -> ( match f.f_codes with [] -> None | c :: _ -> Some c)
