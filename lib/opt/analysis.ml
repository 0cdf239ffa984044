open Ido_ir
open Ido_analysis
(* ------------------------------------------------------------------ *)
(* Natural loops, merged per header.  A loop is hoistable-into only
   when its header has a unique out-of-loop predecessor falling
   through unconditionally — the preheader the hoisted hook lands in. *)

type loop = { header : int; body : int list; preheader : int option }

let loops (f : Ir.func) =
  let cfg = Cfg.build f in
  let by_header = Hashtbl.create 4 in
  List.iter
    (fun (src, h) ->
      let body =
        match Hashtbl.find_opt by_header h with
        | Some b -> b
        | None ->
            let b = Hashtbl.create 8 in
            Hashtbl.replace b h ();
            Hashtbl.replace by_header h b;
            b
      in
      let rec add n =
        if not (Hashtbl.mem body n) then begin
          Hashtbl.replace body n ();
          List.iter add (Cfg.preds cfg n)
        end
      in
      add src)
    (Cfg.back_edges cfg);
  Hashtbl.fold
    (fun header body acc ->
      let outside =
        List.filter (fun p -> not (Hashtbl.mem body p)) (Cfg.preds cfg header)
      in
      let preheader =
        match outside with
        | [ p ] -> (
            match f.Ir.blocks.(p).Ir.term with Ir.Br _ -> Some p | _ -> None)
        | _ -> None
      in
      {
        header;
        body = List.sort compare (Hashtbl.fold (fun b () l -> b :: l) body []);
        preheader;
      }
      :: acc)
    by_header []
  |> List.sort (fun a b -> compare a.header b.header)

(* ------------------------------------------------------------------ *)
(* Block surgery.  [delete] removes the instructions at the given
   (original) positions; [append_at_end] adds instructions before a
   block's terminator.  Both rebuild the array once. *)

let delete (f : Ir.func) (positions : Ir.pos list) =
  let blocks =
    Array.mapi
      (fun b (blk : Ir.block) ->
        if not (List.exists (fun (p : Ir.pos) -> p.Ir.blk = b) positions) then
          blk
        else
          {
            blk with
            Ir.instrs =
              Array.of_list
                (List.filteri
                   (fun i _ ->
                     not
                       (List.exists
                          (fun (p : Ir.pos) -> p.Ir.blk = b && p.Ir.idx = i)
                          positions))
                   (Array.to_list blk.Ir.instrs));
          })
      f.Ir.blocks
  in
  { f with Ir.blocks }

let append_at_end (f : Ir.func) b instrs =
  let blocks = Array.copy f.Ir.blocks in
  let blk = blocks.(b) in
  blocks.(b) <-
    { blk with Ir.instrs = Array.append blk.Ir.instrs (Array.of_list instrs) };
  { f with Ir.blocks }
