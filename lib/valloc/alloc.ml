exception Heap_corruption of string

let page_size = 64 * 1024
let max_alloc = 128 * 1024

(* Size classes: powers of two, 8 bytes .. 128 KiB.  (Large classes use
   multi-page "large pages".) *)
let class_of_size size =
  if size <= 0 || size > max_alloc then invalid_arg "Alloc: unsupported size";
  let rec go c bytes = if bytes >= size then c else go (c + 1) (bytes * 2) in
  go 0 8

let class_bytes c = 8 lsl c
let n_classes = class_of_size max_alloc + 1

type page = {
  p_base : int;
  p_bytes : int; (* page footprint (page_size, or more for large classes) *)
  p_class : int;
  p_capacity : int;
  p_owner : int;
  mutable p_free : int list; (* local free list: block addresses *)
  p_delayed : int list Atomic.t; (* cross-thread frees (Treiber stack) *)
  mutable p_used : int;
  p_allocated : Bytes.t; (* checked mode: per-block allocation bitmap *)
}

type heap = {
  h_id : int;
  h_pages : page list ref array; (* per class: pages owned by this heap *)
  h_lock : Mutex.t; (* one combiner lock per heap (threads may share) *)
}

type t = {
  os : Os_mem.t;
  checked : bool;
  heaps : heap array;
  page_of : (int, page) Hashtbl.t; (* addr / page_size -> page *)
  global_lock : Mutex.t; (* segment carving + page table *)
  mutable cursor : (int * int) option; (* segment base, next offset *)
}

let create ?(checked = true) ?(heaps = 4) os =
  {
    os;
    checked;
    heaps =
      Array.init heaps (fun h_id ->
          { h_id; h_pages = Array.init n_classes (fun _ -> ref []); h_lock = Mutex.create () });
    page_of = Hashtbl.create 256;
    global_lock = Mutex.create ();
    cursor = None;
  }

(* --- checked-mode bitmap helpers ------------------------------------- *)

let block_index p addr =
  let off = addr - p.p_base in
  if off < 0 || off mod class_bytes p.p_class <> 0 then
    raise (Heap_corruption "pointer does not address a block");
  let i = off / class_bytes p.p_class in
  if i >= p.p_capacity then raise (Heap_corruption "pointer past page capacity");
  i

let bit_get b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set b i v =
  let cur = Char.code (Bytes.get b (i / 8)) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set b (i / 8) (Char.chr (if v then cur lor mask else cur land lnot mask))

(* --- page management -------------------------------------------------- *)

(* [None] when the OS refuses the backing mapping (exhaustion or an
   injected transient OOM) — the allocator degrades instead of crashing. *)
let carve_page t ~owner ~cls =
  Mutex.lock t.global_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.global_lock)
    (fun () ->
      let bytes = max page_size (class_bytes cls) in
      let base =
        match t.cursor with
        | Some (seg, off) when off + bytes <= Os_mem.segment_size ->
          t.cursor <- Some (seg, off + bytes);
          Some (seg + off)
        | _ -> (
          match Os_mem.mmap_opt t.os with
          | None -> None
          | Some seg ->
            t.cursor <- Some (seg, bytes);
            Some seg)
      in
      match base with
      | None -> None
      | Some base ->
        let capacity = bytes / class_bytes cls in
        let p =
          {
            p_base = base;
            p_bytes = bytes;
            p_class = cls;
            p_capacity = capacity;
            p_owner = owner;
            p_free = List.init capacity (fun i -> base + (i * class_bytes cls));
            p_delayed = Atomic.make [];
            p_used = 0;
            p_allocated = Bytes.make ((capacity + 7) / 8) '\000';
          }
        in
        for i = 0 to (bytes / page_size) - 1 do
          Hashtbl.replace t.page_of ((base / page_size) + i) p
        done;
        Some p)

let page_of_addr t addr =
  match Hashtbl.find_opt t.page_of (addr / page_size) with
  | Some p -> p
  | None -> raise (Heap_corruption "free of pointer outside any page")

(* Owner-side collection of the cross-thread delayed-free stack. *)
let collect_delayed t p =
  match Atomic.exchange p.p_delayed [] with
  | [] -> ()
  | blocks ->
    List.iter
      (fun addr ->
        if t.checked then begin
          let i = block_index p addr in
          if not (bit_get p.p_allocated i) then raise (Heap_corruption "delayed double free");
          bit_set p.p_allocated i false
        end;
        p.p_free <- addr :: p.p_free;
        p.p_used <- p.p_used - 1)
      blocks

let malloc_opt t ~heap size =
  let cls = class_of_size size in
  let h = t.heaps.(heap) in
  Mutex.lock h.h_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock h.h_lock)
    (fun () ->
      let rec find_page = function
        | [] -> None
        | p :: rest ->
          if p.p_free = [] then collect_delayed t p;
          if p.p_free <> [] then Some p else find_page rest
      in
      let p =
        match find_page !(h.h_pages.(cls)) with
        | Some p -> Some p
        | None -> (
          match carve_page t ~owner:heap ~cls with
          | Some p ->
            h.h_pages.(cls) := p :: !(h.h_pages.(cls));
            Some p
          | None ->
            (* The OS refused the mapping (transient OOM).  Degrade
               gracefully: harvest every page's delayed-free stack — a
               cross-thread free may have returned a block since the scan
               above — and only then report failure to the caller. *)
            List.iter (fun p -> collect_delayed t p) !(h.h_pages.(cls));
            find_page !(h.h_pages.(cls)))
      in
      match p with
      | None -> None
      | Some p -> (
        match p.p_free with
        | [] -> assert false
        | addr :: rest ->
          p.p_free <- rest;
          p.p_used <- p.p_used + 1;
          if t.checked then begin
            let i = block_index p addr in
            if bit_get p.p_allocated i then raise (Heap_corruption "allocating a live block");
            bit_set p.p_allocated i true
          end;
          Some addr))

let malloc t ~heap size =
  match malloc_opt t ~heap size with
  | Some addr -> addr
  | None -> failwith "Alloc: out of memory"

let free t ~heap addr =
  let p = page_of_addr t addr in
  if p.p_owner = heap then begin
    let h = t.heaps.(heap) in
    Mutex.lock h.h_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock h.h_lock)
      (fun () ->
        if t.checked then begin
          let i = block_index p addr in
          if not (bit_get p.p_allocated i) then raise (Heap_corruption "double free");
          bit_set p.p_allocated i false
        end;
        p.p_free <- addr :: p.p_free;
        p.p_used <- p.p_used - 1)
  end
  else begin
    (* Cross-thread: push onto the page's atomic delayed-free stack (the
       §4.2.4 lock-free list; permissions ride along as ghost state in the
       verified version). *)
    if t.checked then ignore (block_index p addr);
    let rec push () =
      let old = Atomic.get p.p_delayed in
      if not (Atomic.compare_and_set p.p_delayed old (addr :: old)) then push ()
    in
    push ()
  end

let usable_size t addr =
  let p = page_of_addr t addr in
  class_bytes p.p_class
