type t = {
  mem : Phys_mem.t;
  root : int; (* frame number of the L4 table *)
  reclaim : bool;
  mutable table_count : int; (* page-table node frames, including root *)
}

let create ?(reclaim = true) mem =
  let root = Phys_mem.alloc_frame mem in
  { mem; root; reclaim; table_count = 1 }

let table_frames t = t.table_count

let canonical va = va >= 0 && va < 1 lsl 48 && va land 0xFFF = 0

let entry_pa frame idx = (frame * Phys_mem.frame_size) + (8 * idx)

(* Walk down one level; allocate the next table when absent (map path). *)
let next_table_alloc t frame idx =
  let pa = entry_pa frame idx in
  let e = Phys_mem.read_word t.mem pa in
  if Pte.is_present e then Pte.frame_of e
  else begin
    let fresh = Phys_mem.alloc_frame t.mem in
    t.table_count <- t.table_count + 1;
    Phys_mem.write_word t.mem pa
      (Pte.pack { present = true; writable = true; user = false } ~frame:fresh);
    fresh
  end

let map4k t ~va ~frame ~writable =
  if not (canonical va) then Error "non-canonical or unaligned va"
  else begin
    let l3 = next_table_alloc t t.root (Pte.index ~level:4 va) in
    let l2 = next_table_alloc t l3 (Pte.index ~level:3 va) in
    let l1 = next_table_alloc t l2 (Pte.index ~level:2 va) in
    let pa = entry_pa l1 (Pte.index ~level:1 va) in
    if Pte.is_present (Phys_mem.read_word t.mem pa) then Error "already mapped"
    else begin
      Phys_mem.write_word t.mem pa
        (Pte.pack { present = true; writable; user = true } ~frame);
      Ok ()
    end
  end

let table_empty t frame =
  let rec go i =
    i >= Phys_mem.words_per_frame
    || ((not (Pte.is_present (Phys_mem.read_word t.mem (entry_pa frame i)))) && go (i + 1))
  in
  go 0

let unmap4k t ~va =
  if not (canonical va) then Error "non-canonical or unaligned va"
  else begin
    (* Walk down without allocating, remembering the path. *)
    let walk frame level =
      let pa = entry_pa frame (Pte.index ~level va) in
      let e = Phys_mem.read_word t.mem pa in
      if Pte.is_present e then Some (Pte.frame_of e) else None
    in
    match walk t.root 4 with
    | None -> Error "not mapped"
    | Some l3 -> (
      match walk l3 3 with
      | None -> Error "not mapped"
      | Some l2 -> (
        match walk l2 2 with
        | None -> Error "not mapped"
        | Some l1 ->
          let pa = entry_pa l1 (Pte.index ~level:1 va) in
          if not (Pte.is_present (Phys_mem.read_word t.mem pa)) then Error "not mapped"
          else begin
            Phys_mem.write_word t.mem pa Pte.empty;
            (* Reclaim empty directories bottom-up (the Figure 12 cost). *)
            if t.reclaim then begin
              if table_empty t l1 then begin
                Phys_mem.write_word t.mem (entry_pa l2 (Pte.index ~level:2 va)) Pte.empty;
                Phys_mem.free_frame t.mem l1;
                t.table_count <- t.table_count - 1;
                if table_empty t l2 then begin
                  Phys_mem.write_word t.mem (entry_pa l3 (Pte.index ~level:3 va)) Pte.empty;
                  Phys_mem.free_frame t.mem l2;
                  t.table_count <- t.table_count - 1;
                  if table_empty t l3 then begin
                    Phys_mem.write_word t.mem (entry_pa t.root (Pte.index ~level:4 va)) Pte.empty;
                    Phys_mem.free_frame t.mem l3;
                    t.table_count <- t.table_count - 1
                  end
                end
              end
            end;
            Ok ()
          end))
  end

(* Trusted MMU walker: the specification map/unmap are judged against. *)
let translate t va =
  if va < 0 || va >= 1 lsl 48 then None
  else begin
    let rec walk frame level =
      let e = Phys_mem.read_word t.mem (entry_pa frame (Pte.index ~level va)) in
      if not (Pte.is_present e) then None
      else if level = 1 then Some ((Pte.frame_of e * Phys_mem.frame_size) + (va land 0xFFF))
      else walk (Pte.frame_of e) (level - 1)
    in
    walk t.root 4
  end
