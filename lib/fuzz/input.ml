open Ido_ir
open Ido_runtime
module Mutate = Ido_lint.Mutate
module Wcommon = Ido_workloads.Wcommon

type op = Load of int | Store of int * int | Addi of int | Mix

type tree =
  | Seq of op list
  | If of op list * op list
  | Loop of int * op list
  | Unlocked of op list

type base = Workload of string | Random of tree list

type t = {
  scheme : Scheme.t;
  base : base;
  edits : Mutate.edit list;
  variant : Protocol.fault option;
  crashes : int list;
}

let make ?(edits = []) ?variant ?(crashes = []) ~scheme base =
  { scheme; base; edits; variant; crashes }

let tree_ops = function
  | Seq l | Unlocked l -> l
  | If (a, b) -> a @ b
  | Loop (_, l) -> l

let size t =
  let base_size =
    match t.base with
    | Workload _ -> 1
    | Random trees ->
        List.fold_left
          (fun acc tr ->
            let trips = match tr with Loop (n, _) -> n | _ -> 0 in
            acc + 1 + trips + List.length (tree_ops tr))
          0 trees
  in
  base_size
  + (2 * List.length t.edits)
  + (match t.variant with Some _ -> 2 | None -> 0)
  + List.length t.crashes

let mutated t = t.edits <> [] || t.variant <> None

let has_unlocked = function
  | Workload _ -> false
  | Random trees ->
      List.exists (function Unlocked _ -> true | _ -> false) trees

let static_only t = mutated t || has_unlocked t.base

let cells = 16

(* ---------- program construction ----------

   Mirrors the PR-1 idempotence harness: [init] allocates a
   [cells + 1]-word node (cells + lock holder), seeds the cells with
   distinguishable values and parks the node in root slot 0; [worker]
   runs the genome against it inside one lock-delineated FASE.  Ops of
   [Unlocked] trees are emitted after the unlock, in genome order —
   the lock-scope bug shape the linter flags as L301. *)

let initial_cell i = Int64.of_int (100 + i)

let random_program trees =
  let b0, _ = Builder.create ~name:"init" ~nparams:0 in
  let arr = Wcommon.alloc_node b0 (cells + 1) [] in
  for i = 0 to cells - 1 do
    Builder.store b0 Ir.Persistent (Ir.Reg arr) i (Ir.Imm (initial_cell i))
  done;
  Wcommon.set_root b0 0 (Ir.Reg arr);
  Builder.ret b0 None;
  let init = Builder.finish b0 in
  let b, _ = Builder.create ~name:"worker" ~nparams:1 in
  let arr = Wcommon.get_root b 0 in
  let lockid = Builder.bin b Ir.Add (Ir.Reg arr) (Ir.Imm (Int64.of_int cells)) in
  Builder.lock b (Ir.Reg lockid);
  let v1 = Builder.mov b (Ir.Imm 1L) in
  let v2 = Builder.mov b (Ir.Imm 2L) in
  let emit_op op =
    match op with
    | Load k ->
        let x = Builder.load b Ir.Persistent (Ir.Reg arr) (k mod cells) in
        Builder.assign b v1 (Ir.Reg x)
    | Store (k, v) ->
        let x = Builder.bin b Ir.Add (Ir.Reg v1) (Ir.Imm (Int64.of_int v)) in
        Builder.store b Ir.Persistent (Ir.Reg arr) (k mod cells) (Ir.Reg x)
    | Addi k -> Builder.assign_bin b v2 Ir.Add (Ir.Reg v2) (Ir.Imm (Int64.of_int k))
    | Mix -> Builder.assign_bin b v1 Ir.Xor (Ir.Reg v1) (Ir.Reg v2)
  in
  let emit_tree tr =
    match tr with
    | Seq ops -> List.iter emit_op ops
    | Unlocked _ -> ()
    | If (a, c) ->
        let parity = Builder.bin b Ir.And (Ir.Reg v2) (Ir.Imm 1L) in
        Builder.if_ b (Ir.Reg parity)
          ~then_:(fun () -> List.iter emit_op a)
          ~else_:(fun () -> List.iter emit_op c)
    | Loop (n, ops) ->
        let i = Builder.mov b (Ir.Imm 0L) in
        Builder.while_ b
          ~cond:(fun () ->
            Ir.Reg (Builder.bin b Ir.Lt (Ir.Reg i) (Ir.Imm (Int64.of_int n))))
          ~body:(fun () ->
            List.iter emit_op ops;
            Builder.assign_bin b i Ir.Add (Ir.Reg i) (Ir.Imm 1L))
  in
  List.iter emit_tree trees;
  Builder.unlock b (Ir.Reg lockid);
  List.iter
    (function Unlocked ops -> List.iter emit_op ops | _ -> ())
    trees;
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

let source_program t =
  match t.base with
  | Workload name -> Ido_workloads.Workload.named name
  | Random trees -> random_program trees

(* ---------- textual codec ----------

   The alphabet is letters, digits and [():;.|,/-] — none of which the
   harness's field scanner escapes, so the strings embed in NDJSON
   lines verbatim and round-trip byte-identically. *)

let op_to_string = function
  | Load k -> Printf.sprintf "L%d" k
  | Store (k, v) -> Printf.sprintf "S%d.%d" k v
  | Addi k -> Printf.sprintf "A%d" k
  | Mix -> "M"

let ops_to_string ops = String.concat ";" (List.map op_to_string ops)

let tree_to_string = function
  | Seq ops -> Printf.sprintf "s(%s)" (ops_to_string ops)
  | If (a, b) -> Printf.sprintf "i(%s/%s)" (ops_to_string a) (ops_to_string b)
  | Loop (n, ops) -> Printf.sprintf "l%d(%s)" n (ops_to_string ops)
  | Unlocked ops -> Printf.sprintf "u(%s)" (ops_to_string ops)

let trees_to_string trees = String.concat "|" (List.map tree_to_string trees)

let base_to_string = function
  | Workload name -> "workload:" ^ name
  | Random trees -> "random:" ^ trees_to_string trees

let op_of_string s =
  let num from =
    match int_of_string_opt (String.sub s from (String.length s - from)) with
    | Some n when n >= 0 -> Some n
    | _ -> None
  in
  if s = "M" then Some Mix
  else if String.length s < 2 then None
  else
    match s.[0] with
    | 'L' -> Option.map (fun k -> Load k) (num 1)
    | 'A' -> Option.map (fun k -> Addi k) (num 1)
    | 'S' -> (
        match String.index_opt s '.' with
        | None -> None
        | Some dot -> (
            match
              ( int_of_string_opt (String.sub s 1 (dot - 1)),
                int_of_string_opt
                  (String.sub s (dot + 1) (String.length s - dot - 1)) )
            with
            | Some k, Some v when k >= 0 && v >= 0 -> Some (Store (k, v))
            | _ -> None))
    | _ -> None

let ops_of_string s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ';' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
          match op_of_string p with
          | Some op -> go (op :: acc) rest
          | None -> None)
    in
    go [] parts

let tree_of_string s =
  let n = String.length s in
  let body from =
    if n >= from + 2 && s.[from] = '(' && s.[n - 1] = ')' then
      Some (String.sub s (from + 1) (n - from - 2))
    else None
  in
  if n < 3 then None
  else
    match s.[0] with
    | 's' -> Option.bind (body 1) (fun b -> Option.map (fun l -> Seq l) (ops_of_string b))
    | 'u' ->
        Option.bind (body 1)
          (fun b -> Option.map (fun l -> Unlocked l) (ops_of_string b))
    | 'i' ->
        Option.bind (body 1) (fun b ->
            match String.index_opt b '/' with
            | None -> None
            | Some slash -> (
                let a = String.sub b 0 slash in
                let c = String.sub b (slash + 1) (String.length b - slash - 1) in
                match (ops_of_string a, ops_of_string c) with
                | Some a, Some c -> Some (If (a, c))
                | _ -> None))
    | 'l' -> (
        match String.index_opt s '(' with
        | None -> None
        | Some paren ->
            Option.bind (int_of_string_opt (String.sub s 1 (paren - 1)))
              (fun trips ->
                if trips < 0 then None
                else
                  Option.bind (body paren)
                    (fun b ->
                      Option.map (fun l -> Loop (trips, l)) (ops_of_string b))))
    | _ -> None

let trees_of_string s =
  let parts = String.split_on_char '|' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest -> (
        match tree_of_string p with
        | Some tr -> go (tr :: acc) rest
        | None -> None)
  in
  go [] parts

let strip_prefix ~prefix s =
  let pn = String.length prefix in
  if String.length s >= pn && String.sub s 0 pn = prefix then
    Some (String.sub s pn (String.length s - pn))
  else None

let base_of_string s =
  match strip_prefix ~prefix:"workload:" s with
  | Some name -> if name = "" then None else Some (Workload name)
  | None -> (
      match strip_prefix ~prefix:"random:" s with
      | Some dsl ->
          Option.map (fun trees -> Random trees) (trees_of_string dsl)
      | None -> None)

let base_label = function
  | Workload name -> name
  | Random trees -> Printf.sprintf "random%d" (List.length trees)

let label t =
  let parts =
    (Scheme.name t.scheme ^ "/" ^ base_label t.base)
    :: List.map Mutate.edit_to_string t.edits
    @ (match t.variant with Some f -> [ "var:" ^ Protocol.fault_name f ] | None -> [])
    @
    match t.crashes with
    | [] -> []
    | cs -> [ Printf.sprintf "c%s" (String.concat "," (List.map string_of_int cs)) ]
  in
  String.concat "+" parts

(* ---------- NDJSON fields ---------- *)

let ints_to_string is = String.concat "," (List.map string_of_int is)

let ints_of_string s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
          match int_of_string_opt p with
          | Some n when n >= 0 -> go (n :: acc) rest
          | _ -> None)
    in
    go [] parts

let json_fields t =
  Printf.sprintf
    {|"scheme":"%s","base":"%s","edits":"%s","variant":"%s","crashes":"%s"|}
    (Scheme.name t.scheme) (base_to_string t.base)
    (String.concat "," (List.map Mutate.edit_to_string t.edits))
    (match t.variant with Some f -> Protocol.fault_name f | None -> "")
    (ints_to_string t.crashes)

let of_json ~fail line =
  let module F = Ido_harness.Spec.Fields in
  let str key = F.string ~fail line ~key in
  let scheme_name = str "scheme" in
  let scheme =
    match Scheme.of_name scheme_name with
    | Some s -> s
    | None -> raise (fail (Printf.sprintf "unknown scheme %S" scheme_name))
  in
  let base =
    let raw = str "base" in
    match base_of_string raw with
    | Some b -> b
    | None -> raise (fail (Printf.sprintf "malformed base %S" raw))
  in
  let edits =
    let raw = str "edits" in
    if raw = "" then []
    else
      List.map
        (fun p ->
          match Mutate.edit_of_string p with
          | Some e -> e
          | None -> raise (fail (Printf.sprintf "malformed edit %S" p)))
        (String.split_on_char ',' raw)
  in
  let variant =
    match str "variant" with
    | "" -> None
    | v -> (
        match Protocol.fault_of_name v with
        | None -> raise (fail (Printf.sprintf "unknown variant %S" v))
        | fault -> fault)
  in
  let crashes =
    let raw = str "crashes" in
    match ints_of_string raw with
    | Some is -> is
    | None -> raise (fail (Printf.sprintf "malformed crashes %S" raw))
  in
  { scheme; base; edits; variant; crashes }
