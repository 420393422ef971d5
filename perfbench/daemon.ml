(* A spawned [qubikos serve] daemon and a closed-loop client speaking its
   framing ([<len>\n<payload>\n]) over a Unix-domain socket. The socket
   and the daemon's log live in a scratch directory of the working tree,
   addressed by relative path so long checkout paths stay under the
   socket-path limit. *)

type t = {
  pid : int;
  socket : string;
  log : string;
  out : in_channel;  (** the daemon's stdout *)
  mutable stopped : bool;
}
type conn = { ic : in_channel; oc : out_channel }

let scratch = ".qbench"
let ensure_scratch () = if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let request c payload =
  Printf.fprintf c.oc "%d\n%s\n" (String.length payload) payload;
  flush c.oc;
  let len = int_of_string (String.trim (input_line c.ic)) in
  let body = really_input_string c.ic len in
  ignore (input_char c.ic);
  body

let close c = close_out_noerr c.oc

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (* Drain is quick once the client has hung up; escalate after 10 s. *)
    let rec wait n =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when n > 0 ->
          Unix.sleepf 0.01;
          wait (n - 1)
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait n
    in
    wait 1000;
    close_in_noerr t.out;
    (try Sys.remove t.socket with Sys_error _ -> ());
    try Sys.remove t.log with Sys_error _ -> ()
  end

(* Start the daemon, wait for the line announcing its listener and
   return a connection to it, so start-up cost includes the first
   accept. *)
let start ~cli ~tag args =
  ensure_scratch ();
  let socket = Printf.sprintf "%s/d%d-%s.sock" scratch (Unix.getpid ()) tag in
  let log = Printf.sprintf "%s/d%d-%s.log" scratch (Unix.getpid ()) tag in
  (try Sys.remove socket with Sys_error _ -> ());
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli
      (Array.of_list ([ cli; "serve"; "--socket"; socket ] @ args))
      Unix.stdin wr err
  in
  Unix.close wr;
  Unix.close err;
  let t = { pid; socket; log; out = Unix.in_channel_of_descr rd; stopped = false } in
  let rec listening () =
    match input_line t.out with
    | line when String.starts_with ~prefix:"serve: listening on" line -> ()
    | _ -> listening ()
    | exception End_of_file ->
        stop t;
        failwith "daemon exited before listening"
  in
  listening ();
  match connect socket with
  | Some c -> (t, c)
  | None ->
      stop t;
      failwith "daemon announced its socket but refused the connection"

(* Peak resident set of a process, from the kernel's VmHWM line. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      let lines = String.split_on_char '\n' text in
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> acc)
        nan lines

(* Raw text of a field of a flat JSON object ([None] if absent). *)
let field payload name =
  let key = Printf.sprintf "\"%s\":" name in
  let kl = String.length key and n = String.length payload in
  let rec find i =
    if i + kl > n then None
    else if String.sub payload i kl = key then Some (i + kl)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      if start < n && payload.[start] = '"' then
        String.sub payload (start + 1) (String.index_from payload (start + 1) '"' - start - 1)
      else
        let rec stop j = if j < n && payload.[j] <> ',' && payload.[j] <> '}' then stop (j + 1) else j in
        String.sub payload start (stop start - start))
    (find 0)

let int_field p name = Option.bind (field p name) int_of_string_opt
let float_field p name = Option.bind (field p name) float_of_string_opt
