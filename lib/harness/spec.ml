open Ido_runtime

type t = {
  scheme : Scheme.t;
  workload : string;
  seed : int;
  threads : int;
  ops : int;
  latency : Ido_nvm.Latency.t option;
  obs : bool;
}

(* A run with no workers or no operations measures nothing: reject it
   instead of reporting a vacuous result. *)
let check_positive what n =
  if n < 1 then invalid_arg (Printf.sprintf "%s must be >= 1 (got %d)" what n)

let make ?(seed = 42) ?latency ?(obs = false) ~scheme ~workload ~threads ~ops ()
    =
  check_positive "threads" threads;
  check_positive "ops" ops;
  { scheme; workload; seed; threads; ops; latency; obs }

let workload t = Ido_workloads.Workload.get t.workload
let program t = Ido_workloads.Workload.named t.workload

(* ---------- JSON field round-tripping ----------

   The five serialisable fields appear in every trace header and in
   the serve report, always in this order and with this exact
   formatting — the trace replay CI check [cmp]s regenerated files
   byte for byte. *)

let json_fields t =
  Printf.sprintf {|"scheme":"%s","workload":"%s","seed":%d,"threads":%d,"ops":%d|}
    (Scheme.name t.scheme) t.workload t.seed t.threads t.ops

module Fields = struct
  let find line ~key =
    let pat = Printf.sprintf {|"%s":|} key in
    let n = String.length line and pn = String.length pat in
    let rec scan i =
      if i + pn > n then None
      else if String.sub line i pn = pat then Some (i + pn)
      else scan (i + 1)
    in
    scan 0

  let int ~fail line ~key =
    match find line ~key with
    | None -> raise (fail (Printf.sprintf "missing field %S" key))
    | Some i ->
        let n = String.length line in
        let j = ref i in
        if !j < n && line.[!j] = '-' then incr j;
        while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
        match int_of_string_opt (String.sub line i (!j - i)) with
        | Some v -> v
        | None -> raise (fail (Printf.sprintf "field %S is not a number" key))

  let string ~fail line ~key =
    match find line ~key with
    | None -> raise (fail (Printf.sprintf "missing field %S" key))
    | Some i ->
        let n = String.length line in
        if i >= n || line.[i] <> '"' then
          raise (fail (Printf.sprintf "field %S is not a string" key));
        let buf = Buffer.create 32 in
        let rec go j =
          if j >= n then
            raise (fail (Printf.sprintf "unterminated string in %S" key))
          else
            match line.[j] with
            | '"' -> Buffer.contents buf
            | '\\' when j + 1 < n ->
                (match line.[j + 1] with
                | 'n' -> Buffer.add_char buf '\n'; go (j + 2)
                | 'r' -> Buffer.add_char buf '\r'; go (j + 2)
                | 't' -> Buffer.add_char buf '\t'; go (j + 2)
                | 'u' when j + 5 < n ->
                    let code = int_of_string ("0x" ^ String.sub line (j + 2) 4) in
                    Buffer.add_char buf (Char.chr (code land 0xff));
                    go (j + 6)
                | c -> Buffer.add_char buf c; go (j + 2))
            | c -> Buffer.add_char buf c; go (j + 1)
        in
        go (i + 1)
end

let of_json ~fail line =
  let scheme_name = Fields.string ~fail line ~key:"scheme" in
  let scheme =
    match Scheme.of_name scheme_name with
    | Some s -> s
    | None -> raise (fail (Printf.sprintf "unknown scheme %S" scheme_name))
  in
  {
    scheme;
    workload = Fields.string ~fail line ~key:"workload";
    seed = Fields.int ~fail line ~key:"seed";
    threads = Fields.int ~fail line ~key:"threads";
    ops = Fields.int ~fail line ~key:"ops";
    latency = None;
    obs = false;
  }
