type reg = int

type space = Persistent | Transient | Stack

type operand = Reg of reg | Imm of int64

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type intrinsic =
  | Rand
  | Thread_id
  | Nv_alloc
  | Nv_free
  | Work
  | Observe
  | Root_get
  | Root_set
  | Assert_nz

type hook =
  | Hregion of region_hook
  | Hfase_enter
  | Hfase_exit
  | Hlock_acquired
  | Hlock_release of { outermost : bool }
  | Hjustdo_store
  | Hundo_store
  | Hredo_store
  | Htxn_begin
  | Htxn_commit
  | Hpage_log
  | Hdurable_commit

and region_hook = {
  region_id : int;
  live_in : reg list;
  out_regs : reg list;
  skippable : bool;
  at_release : bool;
}

type instr =
  | Bin of reg * binop * operand * operand
  | Mov of reg * operand
  | Load of { dst : reg; space : space; base : operand; off : int }
  | Store of { space : space; base : operand; off : int; src : operand }
  | Alloca of reg * int
  | Lock of operand
  | Unlock of operand
  | Durable_begin
  | Durable_end
  | Call of { dst : reg option; func : string; args : operand list }
  | Intrinsic of { dst : reg option; intr : intrinsic; args : operand list }
  | Hook of hook

type terminator =
  | Br of int
  | Cbr of operand * int * int
  | Ret of operand option

type block = {
  label : string;
  mutable instrs : instr array;
  mutable term : terminator;
}

type func = {
  name : string;
  params : reg list;
  mutable blocks : block array;
  nregs : int;
}

type program = { funcs : (string * func) list }

let find_func p name = List.assoc name p.funcs

type pos = { blk : int; idx : int }

let compare_pos a b =
  match compare a.blk b.blk with 0 -> compare a.idx b.idx | c -> c

let operand_uses = function Reg r -> [ r ] | Imm _ -> []

let dedup l = List.sort_uniq compare l

let instr_uses = function
  | Bin (_, _, a, b) -> dedup (operand_uses a @ operand_uses b)
  | Mov (_, a) -> operand_uses a
  | Load { base; _ } -> operand_uses base
  | Store { base; src; _ } -> dedup (operand_uses base @ operand_uses src)
  | Alloca _ -> []
  | Lock a | Unlock a -> operand_uses a
  | Durable_begin | Durable_end -> []
  | Call { args; _ } | Intrinsic { args; _ } ->
      dedup (List.concat_map operand_uses args)
  | Hook (Hregion { live_in; out_regs; _ }) -> dedup (live_in @ out_regs)
  | Hook _ -> []

let instr_defs = function
  | Bin (d, _, _, _) | Mov (d, _) | Load { dst = d; _ } | Alloca (d, _) -> [ d ]
  | Store _ | Lock _ | Unlock _ | Durable_begin | Durable_end -> []
  | Call { dst; _ } | Intrinsic { dst; _ } -> (
      match dst with Some d -> [ d ] | None -> [])
  | Hook _ -> []

let defines instr r =
  match instr with
  | Bin (d, _, _, _) | Mov (d, _) | Load { dst = d; _ } | Alloca (d, _)
  | Call { dst = Some d; _ }
  | Intrinsic { dst = Some d; _ } ->
      d = r
  | _ -> false

let term_uses = function
  | Br _ -> []
  | Cbr (c, _, _) -> operand_uses c
  | Ret (Some o) -> operand_uses o
  | Ret None -> []

let successors = function
  | Br b -> [ b ]
  | Cbr (_, a, b) -> if a = b then [ a ] else [ a; b ]
  | Ret _ -> []

let is_hook = function Hook _ -> true | _ -> false

let fold_instrs f acc func =
  let acc = ref acc in
  Array.iteri
    (fun b block ->
      Array.iteri
        (fun i instr -> acc := f !acc { blk = b; idx = i } instr)
        block.instrs)
    func.blocks;
  !acc

(* -------------------------------------------------------------------- *)
(* Printing *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let space_name = function
  | Persistent -> "nvm"
  | Transient -> "dram"
  | Stack -> "stk"

let intrinsic_name = function
  | Rand -> "rand"
  | Thread_id -> "thread_id"
  | Nv_alloc -> "nv_alloc"
  | Nv_free -> "nv_free"
  | Work -> "work"
  | Observe -> "observe"
  | Root_get -> "root_get"
  | Root_set -> "root_set"
  | Assert_nz -> "assert_nz"

let hook_name = function
  | Hregion { region_id; _ } -> Printf.sprintf "region#%d" region_id
  | Hfase_enter -> "fase_enter"
  | Hfase_exit -> "fase_exit"
  | Hlock_acquired -> "lock_acquired"
  | Hlock_release _ -> "lock_release"
  | Hjustdo_store -> "justdo_store"
  | Hundo_store -> "undo_store"
  | Hredo_store -> "redo_store"
  | Htxn_begin -> "txn_begin"
  | Htxn_commit -> "txn_commit"
  | Hpage_log -> "page_log"
  | Hdurable_commit -> "durable_commit"

let pp_operand fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm i -> Format.fprintf fmt "%Ld" i

let pp_regs fmt regs =
  Format.fprintf fmt "[%s]"
    (String.concat "," (List.map (fun r -> "r" ^ string_of_int r) regs))

let pp_instr fmt = function
  | Bin (d, op, a, b) ->
      Format.fprintf fmt "r%d = %s %a, %a" d (binop_name op) pp_operand a
        pp_operand b
  | Mov (d, a) -> Format.fprintf fmt "r%d = %a" d pp_operand a
  | Load { dst; space; base; off } ->
      Format.fprintf fmt "r%d = load.%s %a+%d" dst (space_name space)
        pp_operand base off
  | Store { space; base; off; src } ->
      Format.fprintf fmt "store.%s %a+%d, %a" (space_name space) pp_operand
        base off pp_operand src
  | Alloca (d, n) -> Format.fprintf fmt "r%d = alloca %d" d n
  | Lock a -> Format.fprintf fmt "lock %a" pp_operand a
  | Unlock a -> Format.fprintf fmt "unlock %a" pp_operand a
  | Durable_begin -> Format.fprintf fmt "durable_begin"
  | Durable_end -> Format.fprintf fmt "durable_end"
  | Call { dst; func; args } ->
      (match dst with
      | Some d -> Format.fprintf fmt "r%d = call %s(" d func
      | None -> Format.fprintf fmt "call %s(" func);
      List.iteri
        (fun i a ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_operand fmt a)
        args;
      Format.fprintf fmt ")"
  | Intrinsic { dst; intr; args } ->
      (match dst with
      | Some d -> Format.fprintf fmt "r%d = @%s(" d (intrinsic_name intr)
      | None -> Format.fprintf fmt "@%s(" (intrinsic_name intr));
      List.iteri
        (fun i a ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_operand fmt a)
        args;
      Format.fprintf fmt ")"
  | Hook (Hregion { region_id; live_in; out_regs; skippable; at_release }) ->
      Format.fprintf fmt "!region#%d%s%s live_in=%a out=%a" region_id
        (if skippable then "?" else "")
        (if at_release then "^" else "")
        pp_regs live_in pp_regs out_regs
  | Hook (Hlock_release { outermost = true }) -> Format.fprintf fmt "!lock_release!"
  | Hook h -> Format.fprintf fmt "!%s" (hook_name h)

let pp_terminator fmt = function
  | Br b -> Format.fprintf fmt "br .%d" b
  | Cbr (c, a, b) -> Format.fprintf fmt "cbr %a, .%d, .%d" pp_operand c a b
  | Ret (Some o) -> Format.fprintf fmt "ret %a" pp_operand o
  | Ret None -> Format.fprintf fmt "ret"

let pp_func fmt f =
  Format.fprintf fmt "func %s(%s) {@." f.name
    (String.concat ", " (List.map (fun r -> "r" ^ string_of_int r) f.params));
  Array.iteri
    (fun b block ->
      Format.fprintf fmt "%s (.%d):@." block.label b;
      Array.iter (fun i -> Format.fprintf fmt "  %a@." pp_instr i) block.instrs;
      Format.fprintf fmt "  %a@." pp_terminator block.term)
    f.blocks;
  Format.fprintf fmt "}@."

let pp_program fmt p =
  List.iter (fun (_, f) -> Format.fprintf fmt "%a@." pp_func f) p.funcs
