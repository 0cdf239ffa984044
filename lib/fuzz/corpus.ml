
type kind = Seed | Survivor | Finding

type entry = {
  e_kind : kind;
  e_input : Input.t;
  e_codes : string list;
  e_digest : string;
  e_detail : string;
}

type t = { c_seed : int; c_opt : bool; c_entries : entry list }

let kind_name = function
  | Seed -> "seed"
  | Survivor -> "survivor"
  | Finding -> "finding"

let kind_of_name = function
  | "seed" -> Some Seed
  | "survivor" -> Some Survivor
  | "finding" -> Some Finding
  | _ -> None

let entry_of_outcome e_kind (o : Exec.outcome) =
  let e_codes, e_detail =
    match o.Exec.o_failure with
    | None -> ([], "")
    | Some f -> (f.Exec.f_codes, f.Exec.f_detail)
  in
  {
    e_kind;
    e_input = o.Exec.o_input;
    e_codes;
    e_digest = Cov.digest o.Exec.o_features;
    e_detail;
  }

let entry_to_ndjson e =
  Printf.sprintf {|{"kind":"%s",%s,"codes":"%s","digest":"%s","detail":"%s"}|}
    (kind_name e.e_kind)
    (Input.json_fields e.e_input)
    (String.concat "," e.e_codes)
    e.e_digest
    (Ido_obs.Obs.json_escape e.e_detail)

let to_ndjson t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf {|{"ido_fuzz_corpus":1,"seed":%d,%s"entries":%d}|}
       t.c_seed
       (if t.c_opt then {|"opt":true,|} else "")
       (List.length t.c_entries));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_to_ndjson e);
      Buffer.add_char buf '\n')
    t.c_entries;
  Buffer.contents buf

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_ndjson t))

let fail fmt = Printf.ksprintf (fun m -> Failure ("corpus: " ^ m)) fmt

let entry_of_line line =
  let module F = Ido_harness.Spec.Fields in
  let fl m = fail "%s" m in
  let e_kind =
    match kind_of_name (F.string ~fail:fl line ~key:"kind") with
    | Some k -> k
    | None -> raise (fail "unknown entry kind in %s" line)
  in
  let e_input = Input.of_json ~fail:fl line in
  let e_codes =
    match F.string ~fail:fl line ~key:"codes" with
    | "" -> []
    | s -> String.split_on_char ',' s
  in
  {
    e_kind;
    e_input;
    e_codes;
    e_digest = F.string ~fail:fl line ~key:"digest";
    e_detail = F.string ~fail:fl line ~key:"detail";
  }

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header =
        try input_line ic with End_of_file -> raise (fail "empty file")
      in
      let module F = Ido_harness.Spec.Fields in
      let fl m = fail "%s" m in
      let version = F.int ~fail:fl header ~key:"ido_fuzz_corpus" in
      if version <> 1 then raise (fail "unsupported version %d" version);
      let c_seed = F.int ~fail:fl header ~key:"seed" in
      let c_opt =
        match F.find header ~key:"opt" with
        | None -> false
        | Some i
          when i + 4 <= String.length header && String.sub header i 4 = "true"
          ->
            true
        | Some _ -> raise (fail "malformed opt field in %s" header)
      in
      let count = F.int ~fail:fl header ~key:"entries" in
      let entries = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             entries := entry_of_line line :: !entries
         done
       with End_of_file -> ());
      let c_entries = List.rev !entries in
      if List.length c_entries <> count then
        raise
          (fail "header claims %d entries, file has %d" count
             (List.length c_entries));
      { c_seed; c_opt; c_entries })

let mismatch was now =
  if was.e_codes <> now.e_codes then
    Printf.sprintf "codes changed: [%s] -> [%s]"
      (String.concat "," was.e_codes)
      (String.concat "," now.e_codes)
  else if was.e_digest <> now.e_digest then
    Printf.sprintf "coverage digest changed: %s -> %s" was.e_digest
      now.e_digest
  else Printf.sprintf "detail changed: %S -> %S" was.e_detail now.e_detail

let verify t =
  let cache = Exec.cache () in
  List.filter_map
    (fun e ->
      let now =
        entry_of_outcome e.e_kind (Exec.run ~cache ~opt:t.c_opt e.e_input)
      in
      if now = e then None else Some (e, mismatch e now))
    t.c_entries
