type t = {
  re : float array;
  im : float array;
}

let create n = { re = Array.make n 0.; im = Array.make n 0. }

let length b = Array.length b.re

let of_real xs =
  { re = Array.copy xs; im = Array.make (Array.length xs) 0. }

let copy b = { re = Array.copy b.re; im = Array.copy b.im }

let get b i = (b.re.(i), b.im.(i))

let set b i re im =
  b.re.(i) <- re;
  b.im.(i) <- im
[@@alloc_free]

let mul b i re im =
  let br = b.re.(i) and bi = b.im.(i) in
  b.re.(i) <- (br *. re) -. (bi *. im);
  b.im.(i) <- (br *. im) +. (bi *. re)
[@@alloc_free]

let magnitude b i = Float.hypot b.re.(i) b.im.(i)

let scale b k =
  for i = 0 to length b - 1 do
    b.re.(i) <- b.re.(i) *. k;
    b.im.(i) <- b.im.(i) *. k
  done
[@@alloc_free]

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  Array.blit src.re src_pos dst.re dst_pos len;
  Array.blit src.im src_pos dst.im dst_pos len
