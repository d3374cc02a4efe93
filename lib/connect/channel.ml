type node = Cpu | Cache | L2 | Sram | Sbuf | Lldma | Dram

type t = { src : node; dst : node; bandwidth : float; txn_bytes : float }

let node_to_string = function
  | Cpu -> "CPU"
  | Cache -> "cache"
  | L2 -> "L2"
  | Sram -> "SRAM"
  | Sbuf -> "sbuf"
  | Lldma -> "lldma"
  | Dram -> "DRAM"

let add_endpoints b c =
  Buffer.add_string b (node_to_string c.src);
  Buffer.add_string b "<->";
  Buffer.add_string b (node_to_string c.dst)

let endpoints_to_string c =
  let b = Buffer.create 16 in
  add_endpoints b c;
  Buffer.contents b

let crosses_chip c = c.src = Dram || c.dst = Dram

let same_endpoints a b =
  (a.src = b.src && a.dst = b.dst) || (a.src = b.dst && a.dst = b.src)

let pp fmt c =
  Format.fprintf fmt "%s (%.4f B/slot, %.1f B/txn)" (endpoints_to_string c)
    c.bandwidth c.txn_bytes
