let frame_size = 4096
let words_per_frame = 512

type t = {
  frames : (int, int64 array) Hashtbl.t; (* frame number -> contents *)
  mutable free_list : int list;
  mutable next_fresh : int;
  limit : int;
}

let create ?(frames = 65536) () =
  { frames = Hashtbl.create 1024; free_list = []; next_fresh = 1; limit = frames }

let alloc_frame t =
  let n =
    match t.free_list with
    | n :: rest ->
      t.free_list <- rest;
      n
    | [] ->
      if t.next_fresh >= t.limit then failwith "Phys_mem: out of frames";
      let n = t.next_fresh in
      t.next_fresh <- n + 1;
      n
  in
  Hashtbl.replace t.frames n (Array.make words_per_frame 0L);
  n

let free_frame t n =
  if not (Hashtbl.mem t.frames n) then invalid_arg "Phys_mem.free_frame: not allocated";
  Hashtbl.remove t.frames n;
  t.free_list <- n :: t.free_list

let locate t pa =
  if pa land 7 <> 0 then invalid_arg "Phys_mem: unaligned access";
  let frame = pa / frame_size and off = pa mod frame_size / 8 in
  match Hashtbl.find_opt t.frames frame with
  | Some a -> (a, off)
  | None -> invalid_arg (Printf.sprintf "Phys_mem: access to unallocated frame %d" frame)

let read_word t pa =
  let a, off = locate t pa in
  a.(off)

let write_word t pa v =
  let a, off = locate t pa in
  a.(off) <- v
