type slot = {
  mutable lo_line : int; (* first resident line number; -1 = empty *)
  mutable hi_line : int; (* last prefetched line number *)
  mutable last_use : int;
}

type t = {
  p : Params.stream_buffer;
  slots : slot array;
  mutable stamp : int;
}

type result = { hit : bool; fetched_lines : int }

let create p =
  if p.Params.sb_streams <= 0 || p.Params.sb_line <= 0 || p.Params.sb_depth <= 0
  then invalid_arg "Stream_buffer.create: non-positive geometry";
  {
    p;
    slots =
      Array.init p.Params.sb_streams (fun _ ->
          { lo_line = -1; hi_line = -1; last_use = 0 });
    stamp = 0;
  }

let params t = t.p

let access t ~addr ~write =
  ignore write;
  t.stamp <- t.stamp + 1;
  let line = addr / t.p.Params.sb_line in
  let found = ref None in
  Array.iter
    (fun s ->
      if s.lo_line >= 0 && line >= s.lo_line && line <= s.hi_line then
        found := Some s)
    t.slots;
  match !found with
  | Some s ->
    s.last_use <- t.stamp;
    (* advance the window when the stream moves past its first line *)
    let fetched =
      if line > s.lo_line then begin
        let advance = line - s.lo_line in
        s.lo_line <- line;
        let new_hi = line + t.p.Params.sb_depth - 1 in
        let fetched = max 0 (new_hi - s.hi_line) in
        s.hi_line <- max s.hi_line new_hi;
        ignore advance;
        fetched
      end
      else 0
    in
    { hit = true; fetched_lines = fetched }
  | None ->
    (* allocate the LRU slot to this new stream *)
    let victim = ref t.slots.(0) in
    Array.iter (fun s -> if s.last_use < !victim.last_use then victim := s) t.slots;
    !victim.lo_line <- line;
    !victim.hi_line <- line + t.p.Params.sb_depth - 1;
    !victim.last_use <- t.stamp;
    { hit = false; fetched_lines = t.p.Params.sb_depth }
