open Ido_ir

type t = {
  func : Ir.func;
  succs : int list array;
  preds : int list array;
  rpo : int list;
  rpo_index : int array;  (* -1 for unreachable *)
  idom : int array;  (* -1 = none *)
  reach : bool array option array;
      (* block-level reachability, incl. cycles: each source's row is
         computed by one BFS on its first [path_exists] query *)
}

let compute_rpo succs n =
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      order := b :: !order
    end
  in
  if n > 0 then dfs 0;
  !order

(* Cooper–Harvey–Kennedy iterative dominator computation. *)
let compute_idom succs preds rpo n =
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_index.(!f1) > rpo_index.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_index.(!f2) > rpo_index.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then begin
          let processed_preds =
            List.filter
              (fun p -> idom.(p) <> -1 && rpo_index.(p) <> -1)
              preds.(b)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  ignore succs;
  (idom, rpo_index)

(* The blocks reachable from [b] by one or more edges: BFS following
   successor edges. *)
let reach_from succs b =
  let row = Array.make (Array.length succs) false in
  let q = Queue.create () in
  List.iter (fun s -> Queue.add s q) succs.(b);
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    if not row.(s) then begin
      row.(s) <- true;
      List.iter (fun s' -> Queue.add s' q) succs.(s)
    end
  done;
  row

let build (func : Ir.func) =
  let n = Array.length func.blocks in
  let succs = Array.init n (fun b -> Ir.successors func.blocks.(b).term) in
  let preds = Array.make n [] in
  Array.iteri
    (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  let rpo = compute_rpo succs n in
  let idom, rpo_index = compute_idom succs preds rpo n in
  { func; succs; preds; rpo; rpo_index; idom; reach = Array.make n None }

let func t = t.func
let succs t b = t.succs.(b)
let preds t b = t.preds.(b)
let reverse_postorder t = t.rpo
let reachable t b = b = 0 || t.rpo_index.(b) >= 0

let idom t b =
  if b = 0 then None
  else if t.idom.(b) = -1 then None
  else Some t.idom.(b)

let dominates t a b =
  if not (reachable t b) then false
  else begin
    let rec walk x = if x = a then true else if x = 0 then a = 0 else walk t.idom.(x) in
    walk b
  end

let back_edges t =
  let edges = ref [] in
  Array.iteri
    (fun src ss ->
      if reachable t src then
        List.iter
          (fun dst -> if dominates t dst src then edges := (src, dst) :: !edges)
          ss)
    t.succs;
  List.rev !edges

let loop_headers t =
  List.sort_uniq compare (List.map snd (back_edges t))

let path_exists t (p : Ir.pos) (q : Ir.pos) =
  (p.blk = q.blk && p.idx < q.idx)
  ||
  match t.reach.(p.blk) with
  | Some row -> row.(q.blk)
  | None ->
      let row = reach_from t.succs p.blk in
      t.reach.(p.blk) <- Some row;
      row.(q.blk)
