open Ido_ir

type t = {
  func : string;
  pos : Ir.pos option;
  code : string;
  message : string;
}

let v ?pos ~func ~code message = { func; pos; code; message }

let vf ?pos ~func ~code fmt =
  Printf.ksprintf (fun message -> { func; pos; code; message }) fmt

let render d =
  match d.pos with
  | None -> Printf.sprintf "%s: [%s] %s" d.func d.code d.message
  | Some p ->
      Printf.sprintf "%s: [%s] %s at (%d,%d)" d.func d.code d.message p.Ir.blk
        p.Ir.idx

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json d =
  let pos =
    match d.pos with
    | None -> "null"
    | Some p -> Printf.sprintf "[%d,%d]" p.Ir.blk p.Ir.idx
  in
  Printf.sprintf "{\"func\":\"%s\",\"pos\":%s,\"code\":\"%s\",\"message\":\"%s\"}"
    (json_escape d.func) pos (json_escape d.code) (json_escape d.message)

let compare a b =
  let c = String.compare a.func b.func in
  if c <> 0 then c
  else
    let c =
      match (a.pos, b.pos) with
      | None, None -> 0
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some p, Some q -> Ir.compare_pos p q
    in
    if c <> 0 then c else String.compare a.code b.code
