open Ido_ir

let forward (f : Ir.func) ~entry ~transfer ~join ~equal =
  let n = Array.length f.Ir.blocks in
  let ins = Array.make n None in
  let on_queue = Array.make n false in
  let work = Queue.create () in
  let set b s =
    ins.(b) <- Some s;
    if not on_queue.(b) then begin
      on_queue.(b) <- true;
      Queue.add b work
    end
  in
  set 0 entry;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    on_queue.(b) <- false;
    let out = transfer b (Option.get ins.(b)) in
    List.iter
      (fun s ->
        match ins.(s) with
        | None -> set s out
        | Some prev ->
            let joined = join prev out in
            if not (equal prev joined) then set s joined)
      (Ir.successors f.Ir.blocks.(b).Ir.term)
  done;
  ins
