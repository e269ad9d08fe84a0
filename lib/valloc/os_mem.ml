let segment_size = 4 * 1024 * 1024

type t = {
  segments : (int, Bytes.t) Hashtbl.t; (* segment index -> backing *)
  mutable next : int;
  max_segments : int;
  lock : Mutex.t;
  faults : Vbase.Faultplan.t option;
      (* fault site "mmap.oom": transient allocation failures — the mmap
         syscall returning MAP_FAILED under memory pressure.  The mapping
         is simply refused; a later call may succeed. *)
  mutable oom_failures : int;
}

let create ?faults ?(max_segments = 256) () =
  {
    segments = Hashtbl.create 16;
    next = 1;
    max_segments;
    lock = Mutex.create ();
    faults;
    oom_failures = 0;
  }

let mmap_opt t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let transient_oom =
        match t.faults with
        | Some plan -> Vbase.Faultplan.fires plan "mmap.oom"
        | None -> false
      in
      if transient_oom || Hashtbl.length t.segments >= t.max_segments then begin
        if transient_oom then t.oom_failures <- t.oom_failures + 1;
        None
      end
      else begin
        let idx = t.next in
        t.next <- idx + 1;
        Hashtbl.replace t.segments idx (Bytes.make segment_size '\000');
        Some (idx * segment_size)
      end)

let mmap t =
  match mmap_opt t with
  | Some addr -> addr
  | None -> failwith "Os_mem: address space exhausted"

let oom_failures t = t.oom_failures

let munmap t addr =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if addr mod segment_size <> 0 then invalid_arg "Os_mem.munmap: unaligned";
      let idx = addr / segment_size in
      if not (Hashtbl.mem t.segments idx) then invalid_arg "Os_mem.munmap: not mapped";
      Hashtbl.remove t.segments idx)

let locate t addr =
  let idx = addr / segment_size in
  match Hashtbl.find_opt t.segments idx with
  | Some b -> (b, addr mod segment_size)
  | None -> invalid_arg (Printf.sprintf "Os_mem: access to unmapped address %#x" addr)

let write_byte t addr v =
  let b, off = locate t addr in
  Bytes.set b off (Char.chr (v land 0xFF))

let blit_fill t ~addr ~len ~byte =
  let b, off = locate t addr in
  if off + len > Bytes.length b then invalid_arg "Os_mem.blit_fill: crosses segment";
  Bytes.fill b off len (Char.chr (byte land 0xFF))

let check_fill t ~addr ~len ~byte =
  let b, off = locate t addr in
  let rec go i = i >= len || (Bytes.get b (off + i) = Char.chr (byte land 0xFF) && go (i + 1)) in
  off + len <= Bytes.length b && go 0

let mapped_segments t = Hashtbl.length t.segments
