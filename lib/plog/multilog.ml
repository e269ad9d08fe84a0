(* Layout: [commit header: 8 + 8*logs + 4 bytes, padded to 128]
           [log 0 data region][log 1 data region]...
   The commit header stores version, the tails of every log, and a CRC. *)

type t = {
  mem : Pmem.t;
  base : int;
  log_len : int; (* data bytes per log *)
  logs : int;
  mutable version : int;
  mutable tails : int array;
}

let header_len t = 8 + (8 * t.logs) + 4

let commit_addr t slot = t.base + (slot * 128)

let data_base t log = t.base + 256 + (log * t.log_len)

let put_u64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * (7 - i))) land 0xFF))
  done

let get_u64 s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let encode_commit t ~version tails =
  let n = header_len t in
  let b = Bytes.make n '\000' in
  put_u64 b 0 version;
  Array.iteri (fun i tl -> put_u64 b (8 + (8 * i)) tl) tails;
  let crc = Vbase.Crc32.digest b 0 (n - 4) in
  for i = 0 to 3 do
    Bytes.set b (n - 4 + i) (Char.chr ((Int32.to_int crc lsr (8 * (3 - i))) land 0xFF))
  done;
  Bytes.to_string b

let decode_commit t s =
  let n = header_len t in
  if String.length s < n then None
  else begin
    let version = get_u64 s 0 in
    if version = 0 then None
    else begin
      let expect =
        let v = ref 0 in
        for i = 0 to 3 do
          v := (!v lsl 8) lor Char.code s.[n - 4 + i]
        done;
        !v
      in
      let got = Int32.to_int (Vbase.Crc32.digest (Bytes.of_string s) 0 (n - 4)) land 0xFFFFFFFF in
      if expect <> got then None
      else Some (version, Array.init t.logs (fun i -> get_u64 s (8 + (8 * i))))
    end
  end

let write_commit t =
  let v = t.version + 1 in
  let s = encode_commit t ~version:v t.tails in
  let addr = commit_addr t (v mod 2) in
  Pmem.write t.mem ~addr s;
  Pmem.flush t.mem ~addr ~len:(header_len t);
  t.version <- v

let format mem ~base ~log_len ~logs =
  let t = { mem; base; log_len; logs; version = 0; tails = Array.make logs 0 } in
  Pmem.write mem ~addr:(commit_addr t 0) (String.make 128 '\000');
  Pmem.flush mem ~addr:(commit_addr t 0) ~len:256;
  write_commit t

let attach mem ~base ~log_len ~logs =
  let t = { mem; base; log_len; logs; version = 0; tails = Array.make logs 0 } in
  let c0 = decode_commit t (Pmem.read mem ~addr:(commit_addr t 0) ~len:(header_len t)) in
  let c1 = decode_commit t (Pmem.read mem ~addr:(commit_addr t 1) ~len:(header_len t)) in
  match (c0, c1) with
  | None, None -> Error "no valid commit record"
  | Some (v, tl), None | None, Some (v, tl) ->
    t.version <- v;
    t.tails <- tl;
    Ok t
  | Some (v0, tl0), Some (v1, tl1) ->
    if v0 > v1 then begin
      t.version <- v0;
      t.tails <- tl0
    end
    else begin
      t.version <- v1;
      t.tails <- tl1
    end;
    Ok t

let append_all t payloads =
  if List.length payloads <> t.logs then Error "wrong number of payloads"
  else if
    List.exists2
      (fun p tl -> tl mod t.log_len + String.length p > t.log_len)
      payloads
      (Array.to_list t.tails)
  then Error "append does not fit (no wrap support in multilog data regions)"
  else begin
    List.iteri
      (fun i p ->
        if String.length p > 0 then begin
          let addr = data_base t i + (t.tails.(i) mod t.log_len) in
          Pmem.write t.mem ~addr p;
          Pmem.flush t.mem ~addr ~len:(String.length p)
        end)
      payloads;
    List.iteri (fun i p -> t.tails.(i) <- t.tails.(i) + String.length p) payloads;
    write_commit t;
    Ok ()
  end

let tails t = Array.to_list t.tails
let log_len t = t.log_len

let free_space t log =
  if log < 0 || log >= t.logs then invalid_arg "Multilog.free_space: bad log index";
  t.log_len - (t.tails.(log) mod t.log_len)

let read t ~log ~offset ~len =
  if log < 0 || log >= t.logs then Error "bad log index"
  else if offset + len > t.tails.(log) then Error "read past tail"
  else Ok (Pmem.read t.mem ~addr:(data_base t log + (offset mod t.log_len)) ~len)
