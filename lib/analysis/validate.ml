open Ido_ir

(* Structural and programming-model checks, reported as structured
   {!Diag.t} values with stable codes. *)

let check_func_diags ?(allow_hooks = false) (f : Ir.func) =
  let diags = ref [] in
  let err ?pos ~code fmt =
    Printf.ksprintf
      (fun s -> diags := Diag.v ?pos ~func:f.name ~code s :: !diags)
      fmt
  in
  let nb = Array.length f.blocks in
  if nb = 0 then err ~code:"V101" "no blocks";
  let check_reg ?pos r =
    if r < 0 || r >= f.nregs then err ?pos ~code:"V102" "register r%d out of range" r
  in
  List.iter check_reg f.params;
  Array.iteri
    (fun b (blk : Ir.block) ->
      Array.iteri
        (fun i instr ->
          let pos = { Ir.blk = b; idx = i } in
          List.iter (check_reg ~pos) (Ir.instr_defs instr);
          List.iter (check_reg ~pos) (Ir.instr_uses instr);
          match instr with
          | Hook _ when not allow_hooks -> err ~pos ~code:"V103" "unexpected hook"
          | Alloca _ when b <> 0 -> err ~pos ~code:"V104" "alloca outside entry block"
          | _ -> ())
        blk.instrs;
      let tpos = { Ir.blk = b; idx = Array.length blk.instrs } in
      List.iter (check_reg ~pos:tpos) (Ir.term_uses blk.term);
      List.iter
        (fun s ->
          if s < 0 || s >= nb then
            err ~pos:tpos ~code:"V105" "branch target .%d out of range" s)
        (Ir.successors blk.term))
    f.blocks;
  if !diags <> [] then List.rev !diags
  else begin
    (* Structural checks passed; run the dataflow-based checks. *)
    let cfg = Cfg.build f in
    (match Fase.compute cfg with
    | Error e -> err ~code:"V113" "%s" e
    | Ok fase ->
        (try
           ignore
             (Ir.fold_instrs
                (fun () (pos : Ir.pos) instr ->
                  let inside = Fase.in_fase fase pos in
                  match instr with
                  | Call _ when inside ->
                      err ~pos ~code:"V106"
                        "call inside FASE (FASEs are single-function)"
                  | Intrinsic { intr = Rand; _ } when inside ->
                      err ~pos ~code:"V107" "non-idempotent rand inside FASE"
                  | Intrinsic { intr = Observe; _ } when inside ->
                      err ~pos ~code:"V108" "non-idempotent observe inside FASE"
                  | Intrinsic { intr = Nv_free; _ } when inside ->
                      err ~pos ~code:"V109"
                        "nv_free inside FASE would double-free on resumption"
                  | Load { space = Transient; _ } when inside ->
                      err ~pos ~code:"V110" "transient load inside FASE"
                  | Store { space = Transient; _ } when inside ->
                      err ~pos ~code:"V111" "transient store inside FASE"
                  | Alloca _ when inside -> err ~pos ~code:"V112" "alloca inside FASE"
                  | _ -> ())
                () f)
         with Failure e -> err ~code:"V113" "%s" e));
    (* Reducibility, reported via Regions.check on a lock-free fase. *)
    (try
       let rpo_index = Array.make nb max_int in
       List.iteri (fun i b -> rpo_index.(b) <- i) (Cfg.reverse_postorder cfg);
       Array.iteri
         (fun src (blk : Ir.block) ->
           if Cfg.reachable cfg src then
             List.iter
               (fun dst ->
                 if rpo_index.(dst) <= rpo_index.(src)
                    && not (Cfg.dominates cfg dst src)
                 then
                   err
                     ~pos:{ Ir.blk = src; idx = Array.length blk.instrs }
                     ~code:"V120" "irreducible control flow (edge %d -> %d)" src dst)
               (Ir.successors blk.term))
         f.blocks
     with Failure e -> err ~code:"V120" "%s" e);
    List.rev !diags
  end

let check_program_diags ?allow_hooks (p : Ir.program) =
  let diags = ref [] in
  let err ~func ~code fmt =
    Printf.ksprintf (fun s -> diags := Diag.v ~func ~code s :: !diags) fmt
  in
  let names = Hashtbl.create 8 in
  List.iter
    (fun (name, (f : Ir.func)) ->
      if Hashtbl.mem names name then err ~func:name ~code:"V130" "duplicate function";
      Hashtbl.replace names name (List.length f.params);
      if name <> f.name then
        err ~func:f.name ~code:"V133" "function registered under name %s" name)
    p.funcs;
  List.iter
    (fun (_, f) ->
      diags := List.rev_append (check_func_diags ?allow_hooks f) !diags;
      ignore
        (Ir.fold_instrs
           (fun () pos instr ->
             match instr with
             | Ir.Call { func; args; _ } -> (
                 match Hashtbl.find_opt names func with
                 | None ->
                     diags :=
                       Diag.vf ~pos ~func:f.Ir.name ~code:"V131"
                         "call to unknown function %s" func
                       :: !diags
                 | Some arity ->
                     if List.length args <> arity then
                       diags :=
                         Diag.vf ~pos ~func:f.Ir.name ~code:"V132"
                           "call to %s with %d args (expects %d)" func
                           (List.length args) arity
                         :: !diags)
             | _ -> ())
           () f))
    p.funcs;
  List.rev !diags

let check_program_exn ?allow_hooks p =
  match check_program_diags ?allow_hooks p with
  | [] -> ()
  | ds -> failwith (String.concat "\n" (List.map Diag.render ds))
