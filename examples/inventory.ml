(* Inventory: an order-processing workload on the public API — composite
   secondary indexes, prefix scans, read-modify-write stock reservation,
   and reporting via visibility-filtered scans. A miniature of the
   workloads the paper's introduction motivates (e-commerce OLTP).

   Run with: dune exec examples/inventory.exe *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Prng = Phoebe_util.Prng

let n_products = 200
let n_customers = 40
let n_orders = 1_500

let () =
  print_endline "== inventory: order processing ==";
  let cfg = { Config.default with Config.n_workers = 4; slots_per_worker = 16 } in
  let db = Db.create cfg in
  let products =
    Db.create_table db ~name:"products"
      ~schema:[ ("sku", Value.T_str); ("price", Value.T_float); ("in_stock", Value.T_int) ]
  in
  Db.create_index db products ~name:"products_by_sku" ~cols:[ "sku" ] ~unique:true;
  let in_stock = Table.col products "in_stock" in
  let orders =
    Db.create_table db ~name:"orders"
      ~schema:
        [
          ("customer", Value.T_int); ("seq", Value.T_int); ("product_rid", Value.T_int);
          ("quantity", Value.T_int); ("total", Value.T_float); ("status", Value.T_str);
        ]
  in
  Db.create_index db orders ~name:"orders_by_customer" ~cols:[ "customer"; "seq" ] ~unique:true;

  let rng = Prng.create ~seed:99 in
  let product_rids =
    Array.init n_products (fun i ->
        Db.with_txn db (fun txn ->
            Table.insert products txn
              [|
                Value.Str (Printf.sprintf "SKU-%04d" i);
                Value.Float (5.0 +. float_of_int (Prng.int rng 200));
                Value.Int (20 + Prng.int rng 80);
              |]))
  in
  Printf.printf "loaded %d products\n" n_products;

  (* Concurrent order placement: reserve stock atomically; an order for
     more units than available is rejected (the transaction still
     commits an order row with status=rejected). *)
  let seqs = Array.make n_customers 0 in
  let placed = ref 0 and rejected = ref 0 in
  for _ = 1 to n_orders do
    let customer = Prng.int rng n_customers in
    let product = product_rids.(Prng.int rng n_products) in
    let quantity = 1 + Prng.int rng 5 in
    seqs.(customer) <- seqs.(customer) + 1;
    let seq = seqs.(customer) in
    Db.submit ~isolation:Txnmgr.Repeatable_read db (fun txn ->
        let price =
          match Table.get products txn ~rid:product with
          | Some row -> ( match row.(1) with Value.Float p -> p | _ -> 0.0)
          | None -> 0.0
        in
        let reserved = ref false in
        ignore
          (Table.update products txn ~rid:product (fun row ->
               match row.(in_stock) with
               | Value.Int stock when stock >= quantity ->
                 reserved := true;
                 [| (in_stock, Value.Int (stock - quantity)) |]
               | _ -> [||]));
        let status = if !reserved then "placed" else "rejected" in
        if !reserved then incr placed else incr rejected;
        ignore
          (Table.insert orders txn
             [|
               Value.Int customer; Value.Int seq; Value.Int product; Value.Int quantity;
               Value.Float (float_of_int quantity *. price); Value.Str status;
             |]))
  done;
  Db.run db;
  Printf.printf "orders: %d placed, %d rejected (out of stock), %d txn aborts retried\n" !placed
    !rejected (Db.aborted db);

  (* Reporting: one customer's order history through the composite index. *)
  let report_customer = 7 in
  Db.with_txn db (fun txn ->
      Printf.printf "order history for customer %d:\n" report_customer;
      Table.index_prefix orders txn ~index:"orders_by_customer"
        ~prefix:[ Value.Int report_customer ] (fun _ row ->
          Printf.printf "  #%-3s qty=%-2s total=%8s  %s\n"
            (Value.to_string row.(1)) (Value.to_string row.(3)) (Value.to_string row.(4))
            (Value.to_string row.(5));
          true));

  (* Inventory low-stock report via a full scan (never warms pages). *)
  Db.with_txn db (fun txn ->
      let low = ref 0 and total_units = ref 0 in
      Table.scan products txn (fun _ row ->
          match row.(2) with
          | Value.Int s ->
            total_units := !total_units + s;
            if s < 5 then incr low
          | _ -> ());
      Printf.printf "stock: %d units remaining across %d products; %d products low (<5)\n"
        !total_units n_products !low);

  (* Conservation check: units reserved + units remaining = initial. *)
  let reserved_units =
    Db.with_txn db (fun txn ->
        let n = ref 0 in
        Table.scan orders txn (fun _ row ->
            if row.(5) = Value.Str "placed" then
              match row.(3) with Value.Int q -> n := !n + q | _ -> ());
        !n)
  in
  let remaining =
    Db.with_txn db (fun txn ->
        let n = ref 0 in
        Table.scan products txn (fun _ row ->
            match row.(2) with Value.Int s -> n := !n + s | _ -> ());
        !n)
  in
  Printf.printf "invariant: reserved (%d) + remaining (%d) = %d\n" reserved_units remaining
    (reserved_units + remaining)
