type reshard = Split | Merge

type t = {
  groups : int;
  replicas : int;
  reshard : reshard option;
}

let make ?(replicas = 0) ?reshard groups =
  if groups < 1 then invalid_arg "Topology: groups must be >= 1";
  if replicas < 0 then invalid_arg "Topology: replicas must be >= 0";
  (match reshard with
  | Some Merge when groups < 2 ->
      invalid_arg "Topology: merge needs at least 2 groups"
  | _ -> ());
  { groups; replicas; reshard }

let static n = make n
let replicated ~replicas n = make ~replicas n
let name t =
  Printf.sprintf "s%d%s%s" t.groups
    (if t.replicas > 0 then Printf.sprintf "r%d" t.replicas else "")
    (match t.reshard with
    | None -> ""
    | Some Split -> "sp"
    | Some Merge -> "mg")

let of_name s =
  let grammar = "expected s<groups>[r<replicas>][sp|mg], e.g. s4, s4r1, s4sp" in
  let fail () = Error (Printf.sprintf "bad topology %S: %s" s grammar) in
  let n = String.length s in
  let digits i =
    let j = ref i in
    while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    if !j = i then None else Some (int_of_string (String.sub s i (!j - i)), !j)
  in
  if n = 0 || s.[0] <> 's' then fail ()
  else
    match digits 1 with
    | None -> fail ()
    | Some (groups, i) -> (
        let replicas, i =
          if i < n && s.[i] = 'r' then
            match digits (i + 1) with
            | Some (r, j) -> (r, j)
            | None -> (-1, i)
          else (0, i)
        in
        if replicas < 0 then fail ()
        else
          let reshard, i =
            if i + 2 <= n && String.sub s i 2 = "sp" then (Some Split, i + 2)
            else if i + 2 <= n && String.sub s i 2 = "mg" then (Some Merge, i + 2)
            else (None, i)
          in
          if i <> n then fail ()
          else
            match make ~replicas ?reshard groups with
            | t -> Ok t
            | exception Invalid_argument m -> Error m)

let detect_ns = 2_000
let migrate_ns ~records = 40 * records
