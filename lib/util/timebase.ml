type ns = int

let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000

let to_ms t = float_of_int t /. 1e6
