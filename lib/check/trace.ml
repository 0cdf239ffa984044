(* NDJSON persistence for traced runs.

   A trace file is self-describing: its header line carries the full
   engine spec plus the crash index, so a recorded run can be replayed
   from the file alone — no command line, no ambient state.  The body
   is one JSON object per obs event; the footer pins the event count,
   the durable-image digest, the oracle verdict and the obs/counters
   reconciliation.  Replaying a trace and saving the result must
   reproduce the original file byte for byte (the CI smoke check
   [cmp]s them). *)

open Ido_workloads

type summary = {
  spec : Engine.spec;
  index : int option;
  events : int;
  digest : string;
  verdict : (unit, string) result option;
  consistency : (unit, string) result;
}

let verdict_string = function
  | None -> "none"
  | Some (Ok ()) -> "ok"
  | Some (Error m) -> "VIOLATION: " ^ m

let result_string = function Ok () -> "ok" | Error m -> m

let header_line (spec : Engine.spec) index =
  (* The shared field prefix comes from the harness spec, so the
     header round-trips through {!Ido_harness.Spec.of_json}. *)
  Printf.sprintf {|{"type":"header","format":1,%s,"cache_lines":%d,"oracle":"%s","index":%d}|}
    (Ido_harness.Spec.json_fields (Engine.base_spec spec))
    spec.Engine.cache_lines
    (Oracle.mode_name spec.Engine.oracle_mode)
    (Option.value index ~default:(-1))

let footer_line ~events ~digest ~verdict ~consistency =
  Printf.sprintf
    {|{"type":"footer","events":%d,"digest":"%s","verdict":"%s","consistency":"%s"}|}
    events
    (Ido_obs.Obs.json_escape digest)
    (Ido_obs.Obs.json_escape (verdict_string verdict))
    (Ido_obs.Obs.json_escape (result_string consistency))

let save (tr : Engine.traced) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header_line tr.Engine.t_spec tr.Engine.t_index);
      output_char oc '\n';
      List.iter
        (fun ev ->
          output_string oc (Ido_obs.Obs.event_to_ndjson ev);
          output_char oc '\n')
        (Ido_obs.Obs.events tr.Engine.t_obs);
      output_string oc
        (footer_line
           ~events:(Ido_obs.Obs.count tr.Engine.t_obs)
           ~digest:tr.Engine.t_digest
           ~verdict:(Option.map (fun i -> i.Engine.verdict) tr.Engine.t_injection)
           ~consistency:tr.Engine.t_consistency);
      output_char oc '\n')

(* ---------- Parsing ----------

   Field extraction is {!Ido_harness.Spec.Fields}: a minimal by-key
   scanner sufficient for files this module wrote itself, shared with
   the serve report reader.  Not a general JSON parser. *)

exception Malformed of string

let fail_of path what =
  Malformed (Printf.sprintf "%s: malformed trace: %s" path what)

let parse_error path what = raise (fail_of path what)

module Fields = Ido_harness.Spec.Fields

let find_key line key = Fields.find line ~key
let int_field path line key = Fields.int ~fail:(fail_of path) line ~key
let string_field path line key = Fields.string ~fail:(fail_of path) line ~key

let load path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let header, footer =
    match lines with
    | first :: (_ :: _ as rest) -> (first, List.nth rest (List.length rest - 1))
    | _ -> parse_error path "expected at least a header and a footer line"
  in
  if find_key header "type" = None || string_field path header "type" <> "header"
  then parse_error path "first line is not a trace header";
  if string_field path footer "type" <> "footer" then
    parse_error path "last line is not a trace footer";
  let base = Ido_harness.Spec.of_json ~fail:(fail_of path) header in
  let oracle_mode =
    let o = string_field path header "oracle" in
    match Oracle.mode_of_name o with
    | Some m -> m
    | None -> parse_error path (Printf.sprintf "unknown oracle mode %S" o)
  in
  let spec =
    try
      Engine.of_base base
        ~cache_lines:(int_field path header "cache_lines")
        ~oracle_mode
    with Invalid_argument msg -> parse_error path msg
  in
  let index =
    match int_field path header "index" with -1 -> None | k -> Some k
  in
  let verdict =
    match string_field path footer "verdict" with
    | "none" -> None
    | "ok" -> Some (Ok ())
    | v ->
        let prefix = "VIOLATION: " in
        let pn = String.length prefix in
        if String.length v >= pn && String.sub v 0 pn = prefix then
          Some (Error (String.sub v pn (String.length v - pn)))
        else Some (Error v)
  in
  let consistency =
    match string_field path footer "consistency" with
    | "ok" -> Ok ()
    | m -> Error m
  in
  {
    spec;
    index;
    events = int_field path footer "events";
    digest = string_field path footer "digest";
    verdict;
    consistency;
  }

let replay (s : summary) = Engine.run_traced ?index:s.index s.spec
