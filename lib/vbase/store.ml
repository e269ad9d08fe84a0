type loaded = {
  entries : (string * Json.t) list;
  dropped : int;
  corrupt : bool;
}

let empty = { entries = []; dropped = 0; corrupt = false }
let corrupt_store = { entries = []; dropped = 0; corrupt = true }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let r =
      try
        let n = in_channel_length ic in
        Some (really_input_string ic n)
      with _ -> None
    in
    close_in_noerr ic;
    r

let load ~dir ~file ~schema =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then empty
  else
    match read_file path with
    | None -> corrupt_store
    | Some text -> (
      match Json.of_string text with
      | Error _ -> corrupt_store
      | Ok doc -> (
        match Json.member "schema" doc with
        | Some (Json.String s) when String.equal s schema -> (
          match Json.member "entries" doc with
          | Some (Json.Obj kvs) ->
            (* An entry is any (key, value) binding; values that are not
               objects are still returned — the *consumer's* decoder
               decides what is malformed for its schema.  Here we only
               drop bindings the JSON layer itself cannot represent as
               entries (none, given Obj), so dropped counts stay with the
               table-shape checks below. *)
            { entries = kvs; dropped = 0; corrupt = false }
          | Some _ | None -> corrupt_store)
        | Some _ | None -> corrupt_store))

(* mkdir -p: cache directories are routinely nested (one per program
   under a bench root) and none of the ancestors need exist yet. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    (* A concurrent creator is fine: only a still-missing dir is an error. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let save ~dir ~file ~schema entries =
  (* Last binding of a duplicated key wins, then sort for determinism. *)
  let tbl = Hashtbl.create (List.length entries) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries;
  let entries =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let doc = Json.Obj [ ("schema", Json.String schema); ("entries", Json.Obj entries) ] in
  let text = Json.to_string ~indent:true doc ^ "\n" in
  try
    mkdir_p dir;
    (* A temp name of its own per save: two writers sharing one would
       rename each other's file away. *)
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:dir file ".tmp"
    in
    (try
       output_string oc text;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    (* rename(2): the update is atomic — readers see the old document or
       the new one, never a prefix. *)
    Sys.rename tmp (Filename.concat dir file);
    Ok ()
  with Sys_error m -> Error m

let wipe ~dir ~file =
  let rm p = if Sys.file_exists p then Sys.remove p in
  let is_temp f = String.starts_with ~prefix:file f && Filename.check_suffix f ".tmp" in
  try
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.iter (fun f -> if is_temp f then rm (Filename.concat dir f)) (Sys.readdir dir);
    rm (Filename.concat dir file);
    Ok ()
  with Sys_error m -> Error m
