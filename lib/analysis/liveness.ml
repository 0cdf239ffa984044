open Ido_ir

type t = {
  block_live_in : Regset.t array;
  (* per block: live set before each instruction index (length =
     #instrs + 1, the last entry being "before the terminator") *)
  at : Regset.t array array;
}

let transfer_instr live instr =
  let live = List.fold_left (fun s d -> Regset.remove d s) live (Ir.instr_defs instr) in
  List.fold_left (fun s u -> Regset.add u s) live (Ir.instr_uses instr)

let block_transfer (b : Ir.block) live_out =
  let live = ref (List.fold_left (fun s u -> Regset.add u s) live_out (Ir.term_uses b.term)) in
  for i = Array.length b.instrs - 1 downto 0 do
    live := transfer_instr !live b.instrs.(i)
  done;
  !live

let compute cfg =
  let f = Cfg.func cfg in
  let n = Array.length f.blocks in
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Process in reverse RPO for fast convergence. *)
    List.iter
      (fun b ->
        let out =
          List.fold_left
            (fun acc s -> Regset.union acc live_in.(s))
            Regset.empty (Cfg.succs cfg b)
        in
        let inn = block_transfer f.blocks.(b) out in
        if not (Regset.equal out live_out.(b)) || not (Regset.equal inn live_in.(b))
        then begin
          live_out.(b) <- out;
          live_in.(b) <- inn;
          changed := true
        end)
      (List.rev (Cfg.reverse_postorder cfg))
  done;
  (* Materialize per-instruction live sets. *)
  let at =
    Array.init n (fun b ->
        let blk = f.blocks.(b) in
        let ni = Array.length blk.instrs in
        let arr = Array.make (ni + 1) Regset.empty in
        let live =
          ref
            (List.fold_left
               (fun s u -> Regset.add u s)
               live_out.(b) (Ir.term_uses blk.term))
        in
        arr.(ni) <- !live;
        for i = ni - 1 downto 0 do
          live := transfer_instr !live blk.instrs.(i);
          arr.(i) <- !live
        done;
        arr)
  in
  { block_live_in = live_in; at }

let live_in t b = t.block_live_in.(b)

let live_at t (p : Ir.pos) = t.at.(p.blk).(p.idx)
