type t = {
  mutable counts : int array;  (* counts.(v) = observations of value v *)
  mutable total : int;
  mutable max_v : int;
}

let create () = { counts = Array.make 16 0; total = 0; max_v = -1 }

let ensure t v =
  let n = Array.length t.counts in
  if v >= n then begin
    let n' = Stdlib.max (v + 1) (2 * n) in
    let a = Array.make n' 0 in
    Array.blit t.counts 0 a 0 n;
    t.counts <- a
  end

let add ?(weight = 1) t v =
  if v < 0 then invalid_arg "Cdf.add: negative value";
  if weight < 0 then invalid_arg "Cdf.add: negative weight";
  ensure t v;
  t.counts.(v) <- t.counts.(v) + weight;
  t.total <- t.total + weight;
  if v > t.max_v then t.max_v <- v

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.max_v <- -1

let copy t = { counts = Array.copy t.counts; total = t.total; max_v = t.max_v }

let assign ~into src =
  into.counts <- Array.copy src.counts;
  into.total <- src.total;
  into.max_v <- src.max_v

let total t = t.total

let cumulative t v =
  if t.total = 0 then 1.0
  else begin
    let acc = ref 0 in
    for i = 0 to Stdlib.min v t.max_v do
      acc := !acc + t.counts.(i)
    done;
    float_of_int !acc /. float_of_int t.total
  end

let mean t =
  if t.total = 0 then 0.0
  else begin
    let acc = ref 0 in
    for i = 0 to t.max_v do
      acc := !acc + (i * t.counts.(i))
    done;
    float_of_int !acc /. float_of_int t.total
  end

let points t =
  if t.max_v < 0 then []
  else begin
    let acc = ref 0 in
    List.init (t.max_v + 1) (fun v ->
        acc := !acc + t.counts.(v);
        (v, float_of_int !acc /. float_of_int t.total))
  end

let percentile t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Cdf.percentile";
  if t.total = 0 then 0
  else begin
    let target = p *. float_of_int t.total in
    let rec go v acc =
      if v > t.max_v then t.max_v
      else begin
        let acc = acc + t.counts.(v) in
        if float_of_int acc >= target then v else go (v + 1) acc
      end
    in
    go 0 0
  end
