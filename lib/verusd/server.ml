type directive = Continue | Stop
type handler = emit:(Vbase.Json.t -> unit) -> Rpc.request -> directive

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (* self-pipe: shutdown wakes the select in serve *)
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;  (* live connections, under [lock] *)
  threads : Thread.t list ref;
  lock : Mutex.t;
}

let create ~socket_path =
  (* A worker writing an event to a client that already hung up must
     see EPIPE as an exception, not die of SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ( let* ) = Result.bind in
  let* () =
    if not (Sys.file_exists socket_path) then Ok ()
    else begin
      (* Distinguish a stale socket file (previous daemon died) from a
         live one (another daemon is still bound to it). *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX socket_path) with
      | () ->
        Unix.close probe;
        Error (Printf.sprintf "socket %s is already served by a live daemon" socket_path)
      | exception Unix.Unix_error _ ->
        Unix.close probe;
        (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
        Ok ()
    end
  in
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX socket_path);
       Unix.listen fd 64
     with e ->
       Unix.close fd;
       raise e);
    fd
  with
  | fd ->
    let wake_r, wake_w = Unix.pipe () in
    Ok
      {
        socket_path;
        listen_fd = fd;
        wake_r;
        wake_w;
        stop = Atomic.make false;
        conns = Hashtbl.create 16;
        threads = ref [];
        lock = Mutex.create ();
      }
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot listen on %s: %s" socket_path (Unix.error_message e))

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    (* Wake the select in [serve]; the byte's value is irrelevant. *)
    try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()
  end

let request_id_of json =
  match Vbase.Json.member "id" json with Some (Vbase.Json.Int i) when i >= 0 -> i | _ -> 0

let handle_conn t (handler : handler) fd =
  let wm = Mutex.create () in
  let emit j =
    Mutex.lock wm;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wm)
      (fun () -> try Rpc.write_frame fd j with Unix.Unix_error _ -> ())
  in
  let emit_error ~id e = emit (Rpc.event_to_json ~id (Rpc.E_error e)) in
  let rec loop () =
    match Rpc.read_frame fd with
    | Rpc.Eof -> ()
    | Rpc.Bad e ->
      (* The length prefix is gone: the stream cannot be resynchronized,
         so answer once and drop the connection. *)
      emit_error ~id:0 e
    | Rpc.Frame json -> (
      let id = request_id_of json in
      if Atomic.get t.stop then
        emit_error ~id { Rpc.code = "RPC005"; message = "daemon is shutting down" }
      else
        match Rpc.request_of_json json with
        | Error e ->
          (* The frame itself was intact: the client can try again. *)
          emit_error ~id e;
          loop ()
        | Ok req -> (
          let directive =
            try handler ~emit req
            with e ->
              emit_error ~id:req.Rpc.r_id
                {
                  Rpc.code = "RPC006";
                  message = Printf.sprintf "internal error: %s" (Printexc.to_string e);
                };
              Continue
          in
          match directive with Continue -> loop () | Stop -> shutdown t))
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.lock;
      Hashtbl.remove t.conns fd;
      Mutex.unlock t.lock;
      try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let serve t handler =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      let readable =
        match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      if (not (Atomic.get t.stop)) && List.mem t.listen_fd readable then begin
        (match Unix.accept t.listen_fd with
        | fd, _ ->
          Mutex.lock t.lock;
          Hashtbl.replace t.conns fd ();
          let th = Thread.create (handle_conn t handler) fd in
          t.threads := th :: !(t.threads);
          Mutex.unlock t.lock
        | exception Unix.Unix_error _ -> ());
        loop ()
      end
      else loop ()
    end
  in
  loop ();
  (* Drain: wake blocked readers with an orderly EOF, then join.  Each
     connection thread closes its own fd on the way out. *)
  Mutex.lock t.lock;
  let live = Hashtbl.fold (fun fd () acc -> fd :: acc) t.conns [] in
  let ths = !(t.threads) in
  Mutex.unlock t.lock;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    live;
  List.iter Thread.join ths;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  try Unix.unlink t.socket_path with Unix.Unix_error _ -> ()
