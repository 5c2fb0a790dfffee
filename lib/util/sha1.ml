type digest = string

(* RFC 3174 section 6.1 on 32-bit words held in OCaml ints (masked to 32
   bits).  Full blocks are read straight from the input as big-endian
   words; only the last one or two blocks, which carry the padding and
   the bit length, are copied.  The 80 rounds are unrolled by stage so
   each stage's function and constant are inline. *)

let mask = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* Fold the 64-byte block of [src] at [base] into [h], with [w] as the
   message schedule. *)
let compress h w src base =
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (String.get_int32_be src (base + (4 * t))) land mask
  done;
  for t = 16 to 79 do
    w.(t) <- rotl (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) in
  let d = ref h.(3) and e = ref h.(4) in
  for t = 0 to 19 do
    let f = (!b land !c) lor (lnot !b land !d) in
    let tmp = (rotl !a 5 + f + !e + w.(t) + 0x5A827999) land mask in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  for t = 20 to 39 do
    let tmp = (rotl !a 5 + (!b lxor !c lxor !d) + !e + w.(t) + 0x6ED9EBA1) land mask in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  for t = 40 to 59 do
    let f = (!b land !c) lor (!b land !d) lor (!c land !d) in
    let tmp = (rotl !a 5 + f + !e + w.(t) + 0x8F1BBCDC) land mask in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  for t = 60 to 79 do
    let tmp = (rotl !a 5 + (!b lxor !c lxor !d) + !e + w.(t) + 0xCA62C1D6) land mask in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask

let digest_string s =
  let len = String.length s in
  let h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |] in
  let w = Array.make 80 0 in
  let full = len / 64 in
  for block = 0 to full - 1 do
    compress h w s (block * 64)
  done;
  (* The tail: leftover bytes, 0x80, zeros, 64-bit big-endian bit
     length — one block, or two when the length does not fit. *)
  let rest = len - (full * 64) in
  let tail_len = if rest + 9 <= 64 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string s (full * 64) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (len * 8));
  let tail = Bytes.unsafe_to_string tail in
  compress h w tail 0;
  if tail_len = 128 then compress h w tail 64;
  let out = Bytes.create 20 in
  Array.iteri (fun i x -> Bytes.set_int32_be out (4 * i) (Int32.of_int x)) h;
  Bytes.unsafe_to_string out

let to_hex d =
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let hex_of_string s = to_hex (digest_string s)

let prf ~key data =
  let d = digest_string (key ^ "\x00" ^ data) in
  let byte i = Int64.of_int (Char.code d.[i]) in
  let rec build acc i =
    if i = 8 then acc else build (Int64.logor (Int64.shift_left acc 8) (byte i)) (i + 1)
  in
  build 0L 0
