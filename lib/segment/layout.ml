type t = { k : int; m : int; write_unit : int; au_size : int; header_size : int }

let make ?(k = 7) ?(m = 2) ?(write_unit = 64 * 1024) ?(header_size = 4096) ~au_size () =
  if k <= 0 || m <= 0 then invalid_arg "Layout.make: k and m must be positive";
  if header_size >= au_size then invalid_arg "Layout.make: header exceeds AU";
  if (au_size - header_size) mod write_unit <> 0 then
    invalid_arg "Layout.make: write_unit must divide au_size - header_size";
  { k; m; write_unit; au_size; header_size }

let members t = t.k + t.m
let rows t = (t.au_size - t.header_size) / t.write_unit
let payload_capacity t = t.k * rows t * t.write_unit

type location = { column : int; au_offset : int; length : int }

let row_chunk t ~row ~within ~len ~column =
  { column; au_offset = t.header_size + (row * t.write_unit) + within; length = len }

let locate t ~off ~len =
  if off < 0 || len < 0 || off + len > payload_capacity t then
    invalid_arg "Layout.locate: out of bounds";
  let acc = ref [] in
  let p = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let w = !p / t.write_unit in
    let within = !p mod t.write_unit in
    let row = w / t.k and column = w mod t.k in
    let chunk = min !remaining (t.write_unit - within) in
    acc := row_chunk t ~row ~within ~len:chunk ~column :: !acc;
    p := !p + chunk;
    remaining := !remaining - chunk
  done;
  List.rev !acc
