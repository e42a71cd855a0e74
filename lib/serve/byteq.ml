(* Growable byte queue.  See byteq.mli. *)

type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let create n = { buf = Bytes.create (max 16 n); pos = 0; len = 0 }
let length q = q.len - q.pos
let view q = (q.buf, q.pos)

(* Make room for [n] more bytes at the tail.  The live bytes move to the
   front of the same buffer only when they fill at most half of it, so at
   least as many dropped bytes pay for each such copy; otherwise they move
   to a buffer twice as large, paid for by the appends that filled it. *)
let reserve q n =
  let live = length q in
  if q.len + n > Bytes.length q.buf then begin
    let buf =
      if 2 * (live + n) > Bytes.length q.buf then
        Bytes.create (max (live + n) (2 * Bytes.length q.buf))
      else q.buf
    in
    Bytes.blit q.buf q.pos buf 0 live;
    q.buf <- buf;
    q.pos <- 0;
    q.len <- live
  end

let add_string q s =
  let n = String.length s in
  reserve q n;
  Bytes.blit_string s 0 q.buf q.len n;
  q.len <- q.len + n

let drop q n =
  if n < 0 || n > length q then invalid_arg "Byteq.drop";
  q.pos <- q.pos + n;
  if q.pos = q.len then begin
    q.pos <- 0;
    q.len <- 0
  end
