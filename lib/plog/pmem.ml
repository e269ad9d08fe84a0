type t = {
  persistent : Bytes.t;
  volatile : Bytes.t;
  mutable flushes : int;
  mutable bytes_written : int;
  mutable flush_budget : int option;
      (* fault injection: when [Some n], only the next [n] flushes persist;
         later ones are silently dropped (the power cut the next crash()
         then simulates happened before their fence) *)
  faults : Vbase.Faultplan.t option;
      (* plan-driven fault site "pmem.torn": when it fires on a flush, only
         a prefix of the range persists (a torn / partial-line write) and
         power fails — every later flush is dropped until crash() *)
}

let create ?faults ~size () =
  {
    persistent = Bytes.make size '\000';
    volatile = Bytes.make size '\000';
    flushes = 0;
    bytes_written = 0;
    flush_budget = None;
    faults;
  }

let size t = Bytes.length t.persistent

let check t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.persistent then
    invalid_arg "Pmem: out of range"

let write t ~addr s =
  check t addr (String.length s);
  Bytes.blit_string s 0 t.volatile addr (String.length s);
  t.bytes_written <- t.bytes_written + String.length s

let read t ~addr ~len =
  check t addr len;
  Bytes.sub_string t.volatile addr len

let torn_fires t =
  match t.faults with
  | None -> false
  | Some plan -> Vbase.Faultplan.fires plan "pmem.torn"

let flush t ~addr ~len =
  check t addr len;
  (match t.flush_budget with
  | Some 0 -> () (* power already failed: the fence never lands *)
  | budget ->
    if torn_fires t then begin
      (* Torn write: power fails mid-flush.  Only a strict prefix of the
         range reaches media (cache lines retire in address order here;
         the prefix length is drawn from the plan so replays tear at the
         same byte), and no later flush can land either. *)
      let keep =
        match t.faults with
        | Some plan -> Vbase.Faultplan.draw plan "pmem.torn" (max 1 len)
        | None -> 0
      in
      Bytes.blit t.volatile addr t.persistent addr keep;
      t.flush_budget <- Some 0
    end
    else begin
      (match budget with Some n -> t.flush_budget <- Some (n - 1) | None -> ());
      Bytes.blit t.volatile addr t.persistent addr len
    end);
  t.flushes <- t.flushes + 1

let power_failed t = t.flush_budget = Some 0

let set_flush_budget t n =
  if n < 0 then invalid_arg "Pmem.set_flush_budget";
  t.flush_budget <- Some n

let crash t =
  t.flush_budget <- None;
  Bytes.blit t.persistent 0 t.volatile 0 (Bytes.length t.persistent)

let flip_bit t ~addr ~bit =
  check t addr 1;
  if bit < 0 || bit > 7 then invalid_arg "Pmem.flip_bit: bit";
  let f b =
    let c = Char.code (Bytes.get b addr) in
    Bytes.set b addr (Char.chr (c lxor (1 lsl bit)))
  in
  f t.persistent;
  f t.volatile

let flushes t = t.flushes
let bytes_written t = t.bytes_written
