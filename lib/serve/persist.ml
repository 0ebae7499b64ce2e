(* Crash-safe persistent artifact store.

   One entry per file, content-addressed by the FNV-1a digest of the
   key ([<16-hex-digest>.art]). The layout is a self-verifying
   envelope:

     srpersist2 <build-hex> <payload-digest-hex> <key-length>\n
     <key bytes><marshalled payload>

   Writes go to a [.tmp] sibling first and land with [Sys.rename], so a
   crash (or kill -9) mid-store leaves either the old entry or no entry
   — never a half-written one under the live name. Loads re-verify
   everything the envelope claims: magic, build, key (a digest
   collision or a swapped file degrades to a miss, exactly like
   {!Cache}), and the payload digest (a truncated or bit-flipped
   artifact is detected before [Marshal] ever sees it). The build is
   the digest of the running executable: [Marshal] carries no types, so
   a payload written by another build (other constructor numbering,
   other passes) would otherwise unmarshal into wrong values. Any
   failure on an {e existing} file counts as [corrupt]; a missing file
   is a plain miss and counts nothing. The store never throws for
   storage reasons: a read-only or full disk, or an executable it
   cannot read, silently degrades the server to compile-every-time. *)

type t = {
  dir : string;
  build : string option; (* [None] turns every load and store into a miss *)
  mutable hits : int;
  mutable corrupt : int;
}

let magic = "srpersist2"

(* The build fingerprint, computed when the process creates its first
   store, so no request reads the executable; [None] when it cannot be
   read. Two domains that race on the first call both compute the same
   value. *)
let build =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some b -> b
    | None ->
      let b =
        try Some (Digest.to_hex (Digest.file Sys.executable_name)) with Sys_error _ -> None
      in
      Atomic.set cell (Some b);
      b

let create ~dir =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  { dir; build = build (); hits = 0; corrupt = 0 }

let path_of_key t key = Filename.concat t.dir (Printf.sprintf "%016x.art" (Cache.digest key))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse "srpersist2 <build> <digest> <keylen>\n<key><payload>"; any
   structural problem or another build raises Exit, which the caller
   counts as corruption. *)
let decode_envelope ~build raw =
  let nl = match String.index_opt raw '\n' with Some i -> i | None -> raise Exit in
  let header = String.sub raw 0 nl in
  match String.split_on_char ' ' header with
  | [ m; b; digest_hex; keylen_s ] when String.equal m magic && String.equal b build ->
    let digest =
      match int_of_string_opt ("0x" ^ digest_hex) with Some d -> d | None -> raise Exit
    in
    let keylen = match int_of_string_opt keylen_s with Some k -> k | None -> raise Exit in
    let body_start = nl + 1 in
    if keylen < 0 || body_start + keylen > String.length raw then raise Exit;
    let key = String.sub raw body_start keylen in
    let payload =
      String.sub raw (body_start + keylen) (String.length raw - body_start - keylen)
    in
    (digest, key, payload)
  | _ -> raise Exit

let load t ~key =
  let path = path_of_key t key in
  match t.build with
  | None -> None
  | Some _ when not (Sys.file_exists path) -> None
  | Some build -> (
    match
      let raw = read_file path in
      let digest, stored_key, payload = decode_envelope ~build raw in
      if not (String.equal stored_key key) then raise Exit;
      if Cache.digest payload <> digest then raise Exit;
      (Marshal.from_string payload 0 : 'a)
    with
    | value ->
      t.hits <- t.hits + 1;
      Some value
    | exception _ ->
      (* Existing but unreadable/corrupt/foreign: degrade to a miss. *)
      t.corrupt <- t.corrupt + 1;
      None)

let store t ~key value =
  match
    let build = match t.build with Some b -> b | None -> raise Exit in
    let payload = Marshal.to_string value [] in
    let path = path_of_key t key in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Printf.sprintf "%s %s %016x %d\n" magic build (Cache.digest payload)
             (String.length key));
        output_string oc key;
        output_string oc payload);
    Sys.rename tmp path
  with
  | () -> ()
  | exception _ -> () (* storage trouble degrades to compile-every-time *)

let hits t = t.hits
let corrupt t = t.corrupt
let dir t = t.dir
