type pstate = Dirty | Written_back | Durable

let rank = function Dirty -> 0 | Written_back -> 1 | Durable -> 2
let join_pstate a b = if rank a <= rank b then a else b

let pstate_to_string = function
  | Dirty -> "volatile-dirty"
  | Written_back -> "written-back"
  | Durable -> "fence-durable"

module Smap = Map.Make (String)

type t = { data : pstate; meta : pstate Smap.t }

let top = { data = Durable; meta = Smap.empty }

let get_meta t name =
  match Smap.find_opt name t.meta with Some s -> s | None -> Durable

let join a b =
  {
    data = join_pstate a.data b.data;
    meta =
      Smap.merge
        (fun _ x y ->
          let x = Option.value x ~default:Durable
          and y = Option.value y ~default:Durable in
          match join_pstate x y with Durable -> None | s -> Some s)
        a.meta b.meta;
  }

let equal a b =
  a.data = b.data
  && Smap.equal ( = )
       (Smap.filter (fun _ s -> s <> Durable) a.meta)
       (Smap.filter (fun _ s -> s <> Durable) b.meta)

let write_meta t name = { t with meta = Smap.add name Dirty t.meta }

let writeback_meta t name =
  match get_meta t name with
  | Dirty -> { t with meta = Smap.add name Written_back t.meta }
  | _ -> t

let write_data t = { t with data = Dirty }

let writeback_data t =
  { t with data = (match t.data with Dirty -> Written_back | s -> s) }

let fence t =
  {
    data = (match t.data with Written_back -> Durable | s -> s);
    meta = Smap.filter_map (fun _ s ->
        match s with Written_back -> None | s -> Some s)
      t.meta;
  }
