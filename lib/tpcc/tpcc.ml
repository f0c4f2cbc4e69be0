module Db = Phoebe_core.Db
module Table = Phoebe_core.Table
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Scheduler = Phoebe_runtime.Scheduler
module Engine = Phoebe_sim.Engine
module Prng = Phoebe_util.Prng
module Zipf = Phoebe_util.Zipf
module Stats = Phoebe_util.Stats
module Trace = Phoebe_obs.Trace

type scale = {
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  initial_orders_per_district : int;
}

let default_scale =
  { districts_per_warehouse = 10; customers_per_district = 60; items = 1000; initial_orders_per_district = 30 }

let spec_scale =
  { districts_per_warehouse = 10; customers_per_district = 3000; items = 100_000; initial_orders_per_district = 3000 }

(* User-initiated rollback (the 1% invalid-item NewOrder, spec §2.4.1.4):
   distinct from an MVCC abort so the runner does not retry it. *)
exception Rollback

type t = {
  tdb : Db.t;
  n_warehouses : int;
  sc : scale;
  warehouse : Table.t;
  district : Table.t;
  customer : Table.t;
  history : Table.t;
  neworder : Table.t;
  orders : Table.t;
  orderline : Table.t;
  item : Table.t;
  stock : Table.t;
  (* NURand run-time constants (spec 2.1.6.1) *)
  c_last : int;
  c_cid : int;
  c_olid : int;
  mutable commit_series : Stats.Series.t;
}

let db t = t.tdb
let warehouses t = t.n_warehouses

type txn_kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_name = function
  | New_order -> "NewOrder"
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | Delivery -> "Delivery"
  | Stock_level -> "StockLevel"

let standard_mix =
  [ (New_order, 0.45); (Payment, 0.43); (Order_status, 0.04); (Delivery, 0.04); (Stock_level, 0.04) ]

(* ------------------------------------------------------------------ *)
(* Value helpers *)

let vi v = Value.Int v
let vf v = Value.Float v
let vs v = Value.Str v
let iv = function Value.Int v -> v | v -> Fmt.failwith "expected int, got %s" (Value.to_string v)
let fv = function Value.Float v -> v | Value.Int v -> float_of_int v | v -> Fmt.failwith "expected float, got %s" (Value.to_string v)
let sv = function Value.Str v -> v | v -> Value.to_string v

(* C_LAST syllables, spec 4.3.2.3 *)
let syllables = [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION"; "EING" |]

let c_last_of n = syllables.(n / 100 mod 10) ^ syllables.(n / 10 mod 10) ^ syllables.(n mod 10)

(* ------------------------------------------------------------------ *)
(* Schema: column positions are fixed by these layouts. Position
   constants are kept complete for documentation even when a column is
   only read through its index. *)
[@@@warning "-32"]

let w_id, w_name, w_tax, w_ytd = (0, 1, 2, 3)
let warehouse_schema =
  [ ("w_id", Value.T_int); ("w_name", Value.T_str); ("w_tax", Value.T_float); ("w_ytd", Value.T_float) ]

let d_id, d_w_id, d_name, d_tax, d_ytd, d_next_o_id = (0, 1, 2, 3, 4, 5)
let district_schema =
  [
    ("d_id", Value.T_int); ("d_w_id", Value.T_int); ("d_name", Value.T_str);
    ("d_tax", Value.T_float); ("d_ytd", Value.T_float); ("d_next_o_id", Value.T_int);
  ]

let c_id, c_d_id, c_w_id, c_first, c_last_col, c_credit, c_discount, c_balance, c_ytd_payment,
    c_payment_cnt, c_delivery_cnt, c_data =
  (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)

let customer_schema =
  [
    ("c_id", Value.T_int); ("c_d_id", Value.T_int); ("c_w_id", Value.T_int);
    ("c_first", Value.T_str); ("c_last", Value.T_str); ("c_credit", Value.T_str);
    ("c_discount", Value.T_float); ("c_balance", Value.T_float); ("c_ytd_payment", Value.T_float);
    ("c_payment_cnt", Value.T_int); ("c_delivery_cnt", Value.T_int); ("c_data", Value.T_str);
  ]

let history_schema =
  [
    ("h_c_id", Value.T_int); ("h_c_d_id", Value.T_int); ("h_c_w_id", Value.T_int);
    ("h_d_id", Value.T_int); ("h_w_id", Value.T_int); ("h_date", Value.T_int);
    ("h_amount", Value.T_float); ("h_data", Value.T_str);
  ]

let no_o_id, no_d_id, no_w_id = (0, 1, 2)
let neworder_schema = [ ("no_o_id", Value.T_int); ("no_d_id", Value.T_int); ("no_w_id", Value.T_int) ]

let o_id, o_d_id, o_w_id, o_c_id, o_entry_d, o_carrier_id, o_ol_cnt, o_all_local =
  (0, 1, 2, 3, 4, 5, 6, 7)

let orders_schema =
  [
    ("o_id", Value.T_int); ("o_d_id", Value.T_int); ("o_w_id", Value.T_int); ("o_c_id", Value.T_int);
    ("o_entry_d", Value.T_int); ("o_carrier_id", Value.T_int); ("o_ol_cnt", Value.T_int);
    ("o_all_local", Value.T_int);
  ]

let ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_supply_w_id, ol_delivery_d, ol_quantity,
    ol_amount, ol_dist_info =
  (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

let orderline_schema =
  [
    ("ol_o_id", Value.T_int); ("ol_d_id", Value.T_int); ("ol_w_id", Value.T_int);
    ("ol_number", Value.T_int); ("ol_i_id", Value.T_int); ("ol_supply_w_id", Value.T_int);
    ("ol_delivery_d", Value.T_int); ("ol_quantity", Value.T_int); ("ol_amount", Value.T_float);
    ("ol_dist_info", Value.T_str);
  ]

let i_id, i_im_id, i_name, i_price, i_data = (0, 1, 2, 3, 4)
let item_schema =
  [
    ("i_id", Value.T_int); ("i_im_id", Value.T_int); ("i_name", Value.T_str);
    ("i_price", Value.T_float); ("i_data", Value.T_str);
  ]

let s_i_id, s_w_id, s_quantity, s_dist, s_ytd, s_order_cnt, s_remote_cnt, s_data =
  (0, 1, 2, 3, 4, 5, 6, 7)

let stock_schema =
  [
    ("s_i_id", Value.T_int); ("s_w_id", Value.T_int); ("s_quantity", Value.T_int);
    ("s_dist", Value.T_str); ("s_ytd", Value.T_int); ("s_order_cnt", Value.T_int);
    ("s_remote_cnt", Value.T_int); ("s_data", Value.T_str);
  ]

(* ------------------------------------------------------------------ *)
(* Load *)

let load database ?(load_data = true) ~warehouses ~scale ~seed () =
  let rng = Prng.create ~seed in
  let warehouse = Db.create_table database ~name:"warehouse" ~schema:warehouse_schema in
  Db.create_index database warehouse ~name:"warehouse_pk" ~cols:[ "w_id" ] ~unique:true;
  let district = Db.create_table database ~name:"district" ~schema:district_schema in
  Db.create_index database district ~name:"district_pk" ~cols:[ "d_w_id"; "d_id" ] ~unique:true;
  let customer = Db.create_table database ~name:"customer" ~schema:customer_schema in
  Db.create_index database customer ~name:"customer_pk" ~cols:[ "c_w_id"; "c_d_id"; "c_id" ] ~unique:true;
  Db.create_index database customer ~name:"customer_by_name" ~cols:[ "c_w_id"; "c_d_id"; "c_last" ]
    ~unique:false;
  let history = Db.create_table database ~name:"history" ~schema:history_schema in
  let neworder = Db.create_table database ~name:"neworder" ~schema:neworder_schema in
  Db.create_index database neworder ~name:"neworder_pk" ~cols:[ "no_w_id"; "no_d_id"; "no_o_id" ]
    ~unique:true;
  let orders = Db.create_table database ~name:"orders" ~schema:orders_schema in
  Db.create_index database orders ~name:"orders_pk" ~cols:[ "o_w_id"; "o_d_id"; "o_id" ] ~unique:true;
  Db.create_index database orders ~name:"orders_by_customer"
    ~cols:[ "o_w_id"; "o_d_id"; "o_c_id"; "o_id" ] ~unique:true;
  let orderline = Db.create_table database ~name:"orderline" ~schema:orderline_schema in
  Db.create_index database orderline ~name:"orderline_pk"
    ~cols:[ "ol_w_id"; "ol_d_id"; "ol_o_id"; "ol_number" ] ~unique:true;
  let item = Db.create_table database ~name:"item" ~schema:item_schema in
  Db.create_index database item ~name:"item_pk" ~cols:[ "i_id" ] ~unique:true;
  let stock = Db.create_table database ~name:"stock" ~schema:stock_schema in
  Db.create_index database stock ~name:"stock_pk" ~cols:[ "s_w_id"; "s_i_id" ] ~unique:true;
  let t =
    {
      tdb = database;
      n_warehouses = warehouses;
      sc = scale;
      warehouse;
      district;
      customer;
      history;
      neworder;
      orders;
      orderline;
      item;
      stock;
      c_last = Prng.int rng 256;
      c_cid = Prng.int rng 1024;
      c_olid = Prng.int rng 8192;
      commit_series = Stats.Series.create ~bucket_width:1_000_000_000;
    }
  in
  (* items (global) *)
  if load_data then begin
  Db.with_txn database (fun txn ->
      for i = 1 to scale.items do
        ignore
          (Table.insert item txn
             [|
               vi i; vi (Prng.int_incl rng 1 10_000);
               vs (Prng.alpha_string rng ~min_len:6 ~max_len:14);
               vf (float_of_int (Prng.int_incl rng 100 10_000) /. 100.0);
               vs (Prng.alpha_string rng ~min_len:8 ~max_len:20);
             |])
      done);
  for w = 1 to warehouses do
    Db.with_txn database (fun txn ->
        ignore
          (Table.insert warehouse txn
             [|
               vi w; vs (Printf.sprintf "wh-%d" w);
               vf (float_of_int (Prng.int_incl rng 0 2000) /. 10_000.0); vf 300_000.0;
             |]);
        for i = 1 to scale.items do
          ignore
            (Table.insert stock txn
               [|
                 vi i; vi w; vi (Prng.int_incl rng 10 100);
                 vs (Prng.alpha_string rng ~min_len:12 ~max_len:24); vi 0; vi 0; vi 0;
                 vs (Prng.alpha_string rng ~min_len:8 ~max_len:20);
               |])
        done);
    for d = 1 to scale.districts_per_warehouse do
      Db.with_txn database (fun txn ->
          let next_o = scale.initial_orders_per_district + 1 in
          ignore
            (Table.insert district txn
               [|
                 vi d; vi w; vs (Printf.sprintf "dist-%d-%d" w d);
                 vf (float_of_int (Prng.int_incl rng 0 2000) /. 10_000.0); vf 30_000.0; vi next_o;
               |]);
          for c = 1 to scale.customers_per_district do
            let last =
              c_last_of
                (if c <= 30 then c - 1
                 else Zipf.nurand rng ~a:255 ~c:t.c_last ~x:0 ~y:(min 999 (scale.customers_per_district - 1)))
            in
            ignore
              (Table.insert customer txn
                 [|
                   vi c; vi d; vi w;
                   vs (Prng.alpha_string rng ~min_len:6 ~max_len:12); vs last;
                   vs (if Prng.int rng 10 = 0 then "BC" else "GC");
                   vf (float_of_int (Prng.int_incl rng 0 5000) /. 10_000.0);
                   vf (-10.0); vf 10.0; vi 1; vi 0;
                   vs (Prng.alpha_string rng ~min_len:30 ~max_len:60);
                 |]);
            ignore
              (Table.insert history txn
                 [| vi c; vi d; vi w; vi d; vi w; vi 0; vf 10.0; vs "initial" |])
          done;
          (* preloaded orders: the most recent 30% are undelivered *)
          for o = 1 to scale.initial_orders_per_district do
            let cid = 1 + ((o * 7) mod scale.customers_per_district) in
            let cnt = Prng.int_incl rng 5 15 in
            let delivered = o <= scale.initial_orders_per_district * 7 / 10 in
            ignore
              (Table.insert orders txn
                 [|
                   vi o; vi d; vi w; vi cid; vi 0;
                   vi (if delivered then Prng.int_incl rng 1 10 else 0);
                   vi cnt; vi 1;
                 |]);
            if not delivered then ignore (Table.insert neworder txn [| vi o; vi d; vi w |]);
            for line = 1 to cnt do
              ignore
                (Table.insert orderline txn
                   [|
                     vi o; vi d; vi w; vi line; vi (Prng.int_incl rng 1 scale.items); vi w;
                     vi (if delivered then 1 else 0); vi 5;
                     vf (if delivered then 0.0 else float_of_int (Prng.int_incl rng 1 999_999) /. 100.0);
                     vs (Prng.alpha_string rng ~min_len:12 ~max_len:24);
                   |])
            done
          done)
    done
  done
  end;
  ignore (Db.gc database);
  t

(* ------------------------------------------------------------------ *)
(* Row access helpers *)

(* Column projections (Table.index_lookup_first and index_prefix
   [?cols]): only the index key columns and these are decoded; every
   other cell reads Null. Built once, so passing one allocates nothing. *)
let key_cols_only = Some [||]
let ol_i_id_only = Some [| ol_i_id |]
let ol_quantity_only = Some [| ol_quantity |]
let ol_amount_only = Some [| ol_amount |]
let s_quantity_only = Some [| s_quantity |]
let s_dist_only = Some [| s_dist |]
let w_tax_only = Some [| w_tax |]
let d_tax_only = Some [| d_tax |]
let c_discount_only = Some [| c_discount |]
let i_price_only = Some [| i_price |]
let o_c_id_only = Some [| o_c_id |]
let c_first_and_id = Some [| c_first; c_id |]

(* The columns each update's closure reads (Table.update [?reads]). *)
let stock_rmw = [| s_quantity; s_ytd; s_order_cnt; s_remote_cnt |]
let payment_rmw = [| c_balance; c_ytd_payment; c_payment_cnt; c_credit; c_data |]
let delivery_rmw = [| c_balance; c_delivery_cnt |]
let d_next_o_id_rmw = [| d_next_o_id |]
let d_ytd_rmw = [| d_ytd |]
let w_ytd_rmw = [| w_ytd |]
let blind = [||]

let find_one ?cols t table txn ~index ~key what =
  match Table.index_lookup_first ?cols table txn ~index ~key with
  | Some hit -> hit
  | None -> Fmt.failwith "tpcc: missing %s (warehouses=%d)" what t.n_warehouses

let customer_by_name ?cols t txn ~w ~d ~last =
  (* spec 2.5.2.2: position ceil(n/2) in first-name order *)
  let hits = ref [] in
  Table.index_prefix ?cols t.customer txn ~index:"customer_by_name" ~prefix:[ vi w; vi d; vs last ]
    (fun rid row ->
      (* index_prefix rows are scratch: copy the retained candidates *)
      hits := (sv row.(c_first), rid, Array.copy row) :: !hits;
      true);
  match
    List.sort
      (fun (f1, r1, _) (f2, r2, _) ->
        let c = String.compare f1 f2 in
        if c <> 0 then c else Int.compare r1 r2)
      !hits
  with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let _, rid, row = List.nth sorted ((n - 1) / 2) in
    Some (rid, row)

(* ------------------------------------------------------------------ *)
(* Transactions *)

type customer = By_id of int | By_name of string

type stmt =
  | Stock_line of { i_id : int; qty : int }
  | Pay_customer of { d_id : int; customer : customer; amount : float; h_d_id : int; h_w_id : int }

type placement = {
  total_warehouses : int;
  home : int;
  local : int -> int option;
  remote : int -> stmt -> string;
}

(* A uniformly chosen warehouse other than [home], out of [total]. *)
let other_warehouse rng ~home ~total = 1 + ((home + Prng.int rng (total - 1)) mod total)

(* One order line's stock update on warehouse [w_id]; returns S_DIST_xx.
   [remote]: the line's order is homed at another warehouse. *)
let stock_line t txn ~w_id ~i_id ~qty ~remote =
  let srid, srow =
    find_one ?cols:s_dist_only t t.stock txn ~index:"stock_pk" ~key:[ vi w_id; vi i_id ] "stock"
  in
  ignore
    (Table.update ~reads:stock_rmw t.stock txn ~rid:srid (fun row ->
         let s_qty = iv row.(s_quantity) in
         let new_qty = if s_qty >= qty + 10 then s_qty - qty else s_qty - qty + 91 in
         [|
           (s_quantity, vi new_qty);
           (s_ytd, vi (iv row.(s_ytd) + qty));
           (s_order_cnt, vi (iv row.(s_order_cnt) + 1));
           (s_remote_cnt, vi (iv row.(s_remote_cnt) + if remote then 1 else 0));
         |]));
  sv srow.(s_dist)

(* Payment's customer half on warehouse [w_id]: balance update (plus
   C_DATA for bad credit) and the history row, whose H_W_ID/H_D_ID name
   the paying warehouse and district. *)
let pay_customer t txn ~w_id ~d_id ~customer ~amount ~h_d_id ~h_w_id =
  let target =
    match customer with
    | By_name last -> customer_by_name ?cols:c_first_and_id t txn ~w:w_id ~d:d_id ~last
    | By_id cid ->
      Table.index_lookup_first ?cols:key_cols_only t.customer txn ~index:"customer_pk"
        ~key:[ vi w_id; vi d_id; vi cid ]
  in
  match target with
  | None -> () (* a last name with no customers: spec allows skipping *)
  | Some (crid, crow) ->
    ignore
      (Table.update ~reads:payment_rmw t.customer txn ~rid:crid (fun row ->
           let balance = (c_balance, vf (fv row.(c_balance) -. amount))
           and ytd = (c_ytd_payment, vf (fv row.(c_ytd_payment) +. amount))
           and cnt = (c_payment_cnt, vi (iv row.(c_payment_cnt) + 1)) in
           if sv row.(c_credit) = "BC" then
             let data = sv row.(c_data) in
             [|
               ( c_data,
                 vs
                   (Printf.sprintf "%d-%d-%.2f|%s" h_w_id h_d_id amount
                      (String.sub data 0 (min 40 (String.length data)))) );
               balance;
               ytd;
               cnt;
             |]
           else [| balance; ytd; cnt |]));
    ignore
      (Table.insert t.history txn
         [|
           crow.(c_id); crow.(c_d_id); crow.(c_w_id); vi h_d_id; vi h_w_id; vi (Db.now t.tdb); vf amount;
           vs "payment";
         |])

let run_stmt t txn ~w_id = function
  | Stock_line { i_id; qty } -> stock_line t txn ~w_id ~i_id ~qty ~remote:true
  | Pay_customer { d_id; customer; amount; h_d_id; h_w_id } ->
    pay_customer t txn ~w_id ~d_id ~customer ~amount ~h_d_id ~h_w_id;
    ""

let new_order ?at t txn rng ~w_id =
  let sc = t.sc in
  let home = match at with Some p -> p.home | None -> w_id in
  let total = match at with Some p -> p.total_warehouses | None -> t.n_warehouses in
  let d = Prng.int_incl rng 1 sc.districts_per_warehouse in
  let cid = 1 + Zipf.nurand rng ~a:1023 ~c:t.c_cid ~x:0 ~y:(sc.customers_per_district - 1) in
  let ol_cnt = Prng.int_incl rng 5 15 in
  let rollback_last = Prng.int rng 100 = 0 in
  let _, wrow =
    find_one ?cols:w_tax_only t t.warehouse txn ~index:"warehouse_pk" ~key:[ vi w_id ] "warehouse"
  in
  let w_tax = fv wrow.(w_tax) in
  let drid, drow =
    find_one ?cols:d_tax_only t t.district txn ~index:"district_pk" ~key:[ vi w_id; vi d ] "district"
  in
  (* claim the order id atomically: the closure runs under the tuple lock *)
  let next_o = ref 0 in
  ignore
    (Table.update ~reads:d_next_o_id_rmw t.district txn ~rid:drid (fun row ->
         next_o := iv row.(d_next_o_id);
         [| (d_next_o_id, vi (!next_o + 1)) |]));
  let next_o = !next_o in
  let _, crow =
    find_one ?cols:c_discount_only t t.customer txn ~index:"customer_pk" ~key:[ vi w_id; vi d; vi cid ]
      "customer"
  in
  let c_disc = fv crow.(c_discount) in
  let d_tax_v = fv drow.(d_tax) in
  ignore
    (Table.insert t.orders txn
       [| vi next_o; vi d; vi w_id; vi cid; vi (Db.now t.tdb); vi 0; vi ol_cnt; vi 1 |]);
  ignore (Table.insert t.neworder txn [| vi next_o; vi d; vi w_id |]);
  let total_amount = ref 0.0 in
  for line = 1 to ol_cnt do
    let invalid = rollback_last && line = ol_cnt in
    let iid =
      if invalid then sc.items + 1
      else 1 + Zipf.nurand rng ~a:8191 ~c:t.c_olid ~x:0 ~y:(sc.items - 1)
    in
    let supply_w =
      if total > 1 && Prng.int rng 100 = 0 then other_warehouse rng ~home ~total else home
    in
    (match Table.index_lookup_first ?cols:i_price_only t.item txn ~index:"item_pk" ~key:[ vi iid ] with
    | None -> raise Rollback (* spec: 1% of NewOrders roll back on a bad item *)
    | Some (_, irow) ->
      let price = fv irow.(i_price) in
      let qty = Prng.int_incl rng 1 10 in
      let remote = supply_w <> home in
      let dist =
        match at with
        | None -> stock_line t txn ~w_id:supply_w ~i_id:iid ~qty ~remote
        | Some p -> (
          match p.local supply_w with
          | Some w_id -> stock_line t txn ~w_id ~i_id:iid ~qty ~remote
          | None -> p.remote supply_w (Stock_line { i_id = iid; qty }))
      in
      let amount = float_of_int qty *. price in
      total_amount := !total_amount +. amount;
      ignore
        (Table.insert t.orderline txn
           [| vi next_o; vi d; vi w_id; vi line; vi iid; vi supply_w; vi 0; vi qty; vf amount; vs dist |]))
  done;
  (* the computed order total exercises the tax/discount arithmetic *)
  ignore (!total_amount *. (1.0 +. w_tax +. d_tax_v) *. (1.0 -. c_disc))

let payment ?at t txn rng ~w_id =
  let sc = t.sc in
  let home = match at with Some p -> p.home | None -> w_id in
  let total = match at with Some p -> p.total_warehouses | None -> t.n_warehouses in
  let d = Prng.int_incl rng 1 sc.districts_per_warehouse in
  let amount = float_of_int (Prng.int_incl rng 100 500_000) /. 100.0 in
  let wrid, _ =
    find_one ?cols:key_cols_only t t.warehouse txn ~index:"warehouse_pk" ~key:[ vi w_id ] "warehouse"
  in
  ignore
    (Table.update ~reads:w_ytd_rmw t.warehouse txn ~rid:wrid (fun row ->
         [| (w_ytd, vf (fv row.(w_ytd) +. amount)) |]));
  let drid, _ =
    find_one ?cols:key_cols_only t t.district txn ~index:"district_pk" ~key:[ vi w_id; vi d ] "district"
  in
  ignore
    (Table.update ~reads:d_ytd_rmw t.district txn ~rid:drid (fun row ->
         [| (d_ytd, vf (fv row.(d_ytd) +. amount)) |]));
  (* 85% home district customer, 15% remote (spec 2.5.1.2); the remote
     district is drawn before the remote warehouse *)
  let c_w, c_d =
    if total > 1 && Prng.int rng 100 < 15 then begin
      let c_d = Prng.int_incl rng 1 sc.districts_per_warehouse in
      (other_warehouse rng ~home ~total, c_d)
    end
    else (home, d)
  in
  let customer =
    if Prng.int rng 100 < 60 then
      By_name (c_last_of (Zipf.nurand rng ~a:255 ~c:t.c_last ~x:0 ~y:(min 999 (sc.customers_per_district - 1))))
    else By_id (1 + Zipf.nurand rng ~a:1023 ~c:t.c_cid ~x:0 ~y:(sc.customers_per_district - 1))
  in
  match at with
  | None -> pay_customer t txn ~w_id:c_w ~d_id:c_d ~customer ~amount ~h_d_id:d ~h_w_id:home
  | Some p -> (
    match p.local c_w with
    | Some w_id -> pay_customer t txn ~w_id ~d_id:c_d ~customer ~amount ~h_d_id:d ~h_w_id:home
    | None -> ignore (p.remote c_w (Pay_customer { d_id = c_d; customer; amount; h_d_id = d; h_w_id = home })))

let order_status t txn rng ~w_id =
  let sc = t.sc in
  let d = Prng.int_incl rng 1 sc.districts_per_warehouse in
  let target =
    if Prng.int rng 100 < 60 then
      let last =
        c_last_of (Zipf.nurand rng ~a:255 ~c:t.c_last ~x:0 ~y:(min 999 (sc.customers_per_district - 1)))
      in
      customer_by_name t txn ~w:w_id ~d ~last
    else
      let cid = 1 + Zipf.nurand rng ~a:1023 ~c:t.c_cid ~x:0 ~y:(sc.customers_per_district - 1) in
      Table.index_lookup_first ?cols:key_cols_only t.customer txn ~index:"customer_pk"
        ~key:[ vi w_id; vi d; vi cid ]
  in
  match target with
  | None -> ()
  | Some (_, crow) ->
    let cid = iv crow.(c_id) in
    (* most recent order of this customer *)
    let last_order = ref None in
    Table.index_prefix ?cols:key_cols_only t.orders txn ~index:"orders_by_customer"
      ~prefix:[ vi w_id; vi d; vi cid ] (fun _ row ->
        (* the prefix row is scratch: keep only the order id *)
        last_order := Some (iv row.(o_id));
        true);
    (match !last_order with
    | None -> ()
    | Some oid ->
      Table.index_prefix ?cols:ol_quantity_only t.orderline txn ~index:"orderline_pk"
        ~prefix:[ vi w_id; vi d; vi oid ] (fun _ olrow ->
          ignore (iv olrow.(ol_quantity));
          true))

let delivery t txn rng ~w_id =
  let sc = t.sc in
  let carrier = Prng.int_incl rng 1 10 in
  for d = 1 to sc.districts_per_warehouse do
    (* oldest undelivered order in this district *)
    let oldest = ref None in
    Table.index_prefix ?cols:key_cols_only t.neworder txn ~index:"neworder_pk" ~prefix:[ vi w_id; vi d ]
      (fun rid row ->
        oldest := Some (rid, iv row.(no_o_id));
        false);
    match !oldest with
    | None -> ()
    | Some (no_rid, oid) ->
      if Table.delete t.neworder txn ~rid:no_rid then begin
        match
          Table.index_lookup_first ?cols:o_c_id_only t.orders txn ~index:"orders_pk"
            ~key:[ vi w_id; vi d; vi oid ]
        with
        | None -> ()
        | Some (orid, orow) ->
          ignore
            (Table.update ~reads:blind t.orders txn ~rid:orid (fun _ -> [| (o_carrier_id, vi carrier) |]));
          let cid = iv orow.(o_c_id) in
          let sum = ref 0.0 in
          let lines = ref [] in
          Table.index_prefix ?cols:ol_amount_only t.orderline txn ~index:"orderline_pk"
            ~prefix:[ vi w_id; vi d; vi oid ] (fun rid row ->
              sum := !sum +. fv row.(ol_amount);
              lines := rid :: !lines;
              true);
          List.iter
            (fun rid ->
              (* the delivery date is read before the statement starts,
                 not under its lock *)
              let delivered = vi (Db.now t.tdb + 1) in
              ignore
                (Table.update ~reads:blind t.orderline txn ~rid (fun _ -> [| (ol_delivery_d, delivered) |])))
            !lines;
          (match
             Table.index_lookup_first ?cols:key_cols_only t.customer txn ~index:"customer_pk"
               ~key:[ vi w_id; vi d; vi cid ]
           with
          | None -> ()
          | Some (crid, _) ->
            ignore
              (Table.update ~reads:delivery_rmw t.customer txn ~rid:crid (fun row ->
                   [|
                     (c_balance, vf (fv row.(c_balance) +. !sum));
                     (c_delivery_cnt, vi (iv row.(c_delivery_cnt) + 1));
                   |])))
      end
  done

let stock_level t txn rng ~w_id =
  let sc = t.sc in
  let d = Prng.int_incl rng 1 sc.districts_per_warehouse in
  let threshold = Prng.int_incl rng 10 20 in
  let _, drow = find_one t t.district txn ~index:"district_pk" ~key:[ vi w_id; vi d ] "district" in
  let next_o = iv drow.(d_next_o_id) in
  let seen = Hashtbl.create 64 in
  let low = ref 0 in
  for oid = max 1 (next_o - 20) to next_o - 1 do
    Table.index_prefix ?cols:ol_i_id_only t.orderline txn ~index:"orderline_pk"
      ~prefix:[ vi w_id; vi d; vi oid ] (fun _ row ->
        let iid = iv row.(ol_i_id) in
        if not (Hashtbl.mem seen iid) then begin
          Hashtbl.add seen iid ();
          match
            Table.index_lookup_first ?cols:s_quantity_only t.stock txn ~index:"stock_pk"
              ~key:[ vi w_id; vi iid ]
          with
          | Some (_, srow) -> if iv srow.(s_quantity) < threshold then incr low
          | None -> ()
        end;
        true)
  done;
  ignore !low

(* ------------------------------------------------------------------ *)
(* Mix driver *)

type results = {
  duration_s : float;
  new_orders : int;
  total_committed : int;
  aborted : int;
  deadline_aborts : int;
  sheds : int;
  tpmc : float;
  tpm_total : float;
  latency_p50_us : float;
  latency_p99_us : float;
  per_kind : (txn_kind * int) list;
}

let kind_index = function New_order -> 0 | Payment -> 1 | Order_status -> 2 | Delivery -> 3 | Stock_level -> 4

(* Trace kind indices are [kind_index + 1]: slot 0 is the generic
   "other" kind for non-TPC-C transactions. *)
let span_kind kind = kind_index kind + 1

let label_spans database =
  match Db.trace database with
  | Some tr -> Trace.set_kind_names tr [| "new_order"; "payment"; "order_status"; "delivery"; "stock_level" |]
  | None -> ()

let pick_kind rng mix =
  let r = Prng.float rng 1.0 in
  let rec go acc = function
    | [] -> New_order
    | (k, p) :: rest -> if r < acc +. p then k else go (acc +. p) rest
  in
  go 0.0 mix

let run_txn ?at t kind txn rng ~w_id =
  match kind with
  | New_order -> new_order ?at t txn rng ~w_id
  | Payment -> payment ?at t txn rng ~w_id
  | Order_status -> order_status t txn rng ~w_id
  | Delivery -> delivery t txn rng ~w_id
  | Stock_level -> stock_level t txn rng ~w_id

let run_mix t ?(affinity = true) ?(mix = standard_mix) ~concurrency ~duration_ns ~seed () =
  let database = t.tdb in
  let eng = Db.engine database in
  let sched = Db.scheduler database in
  t.commit_series <- Stats.Series.create ~bucket_width:1_000_000_000;
  let start = Engine.now eng in
  let deadline = start + duration_ns in
  let committed = Array.make 5 0 in
  label_spans database;
  let rollbacks = ref 0 in
  let deadline_aborts = ref 0 in
  let n_sheds = ref 0 in
  let latency = Stats.Histogram.create () in
  let n_workers = (Db.config database).Phoebe_core.Config.n_workers in
  (* Exponential backoff (virtual time) after a shed or a deadline
     abort: re-offering the work immediately would keep the system
     exactly as overloaded as the shed was meant to relieve. *)
  let base_backoff = 100_000 (* 100 µs *) in
  let max_backoff = 10_000_000 (* 10 ms *) in
  (* One virtual user per unit of concurrency, each with a home warehouse
     bound round-robin; affinity also pins the user to the warehouse's
     worker (the paper's default). *)
  let rec user uid rng backoff () =
    if Engine.now eng < deadline then begin
      let home = 1 + (uid mod t.n_warehouses) in
      let w_id = if affinity then home else 1 + Prng.int rng t.n_warehouses in
      let kind = pick_kind rng mix in
      let began = Engine.now eng in
      let submit_affinity = if affinity then Some ((w_id - 1) mod n_workers) else None in
      let retry_later () =
        Engine.schedule_at eng ~time:(Engine.now eng + backoff) (fun () ->
            user uid rng (min (backoff * 2) max_backoff) ())
      in
      let outcome = ref `Aborted in
      let finish () =
        Stats.Histogram.add latency (Engine.now eng - began);
        match !outcome with
        | `Committed ->
          committed.(kind_index kind) <- committed.(kind_index kind) + 1;
          Stats.Series.add t.commit_series ~time:(Engine.now eng) 1.0;
          user uid rng base_backoff ()
        | `Deadline ->
          incr deadline_aborts;
          retry_later ()
        | `Aborted -> user uid rng base_backoff ()
      in
      match
        Db.submit ?affinity:submit_affinity database ~on_done:finish (fun txn ->
            Scheduler.span_kind (span_kind kind);
            (try run_txn t kind txn rng ~w_id with
            | Rollback ->
              (* the spec-mandated user rollback: abort without retry *)
              incr rollbacks;
              raise (Txnmgr.Abort (Txnmgr.User, "user-initiated rollback"))
            | Txnmgr.Abort (Txnmgr.Deadline, _) as e ->
              outcome := `Deadline;
              raise e);
            outcome := `Committed)
      with
      | () -> ()
      | exception Db.Overloaded ->
        incr n_sheds;
        retry_later ()
    end
  in
  let rng0 = Prng.create ~seed in
  for uid = 0 to concurrency - 1 do
    user uid (Prng.split rng0) base_backoff ()
  done;
  Scheduler.run_until_quiescent sched;
  let elapsed_s = float_of_int (Engine.now eng - start) /. 1e9 in
  let minutes = elapsed_s /. 60.0 in
  let new_orders = committed.(0) in
  let total = Array.fold_left ( + ) 0 committed in
  {
    duration_s = elapsed_s;
    new_orders;
    total_committed = total;
    aborted = Db.aborted database;
    deadline_aborts = !deadline_aborts;
    sheds = !n_sheds;
    tpmc = (if minutes > 0.0 then float_of_int new_orders /. minutes else 0.0);
    tpm_total = (if minutes > 0.0 then float_of_int total /. minutes else 0.0);
    latency_p50_us = Stats.Histogram.percentile latency 0.5 /. 1e3;
    latency_p99_us = Stats.Histogram.percentile latency 0.99 /. 1e3;
    per_kind =
      List.map (fun k -> (k, committed.(kind_index k))) [ New_order; Payment; Order_status; Delivery; Stock_level ];
  }

let throughput_series t = Stats.Series.rate_per_second t.commit_series

(* ------------------------------------------------------------------ *)
(* Consistency checks (TPC-C §3.3.2) *)

let consistency_checks t =
  Db.with_txn t.tdb (fun txn ->
      let ok_wd = ref true and ok_next = ref true and ok_ol_cnt = ref true and ok_no = ref true in
      for w = 1 to t.n_warehouses do
        (* 1: W_YTD = sum(D_YTD) *)
        let _, wrow = find_one t t.warehouse txn ~index:"warehouse_pk" ~key:[ vi w ] "warehouse" in
        let dsum = ref 0.0 in
        for d = 1 to t.sc.districts_per_warehouse do
          let _, drow = find_one t t.district txn ~index:"district_pk" ~key:[ vi w; vi d ] "district" in
          dsum := !dsum +. fv drow.(d_ytd);
          (* 2: D_NEXT_O_ID - 1 = max(O_ID) *)
          let max_oid = ref 0 in
          Table.index_prefix t.orders txn ~index:"orders_pk" ~prefix:[ vi w; vi d ] (fun _ row ->
              max_oid := max !max_oid (iv row.(o_id));
              true);
          if iv drow.(d_next_o_id) - 1 <> !max_oid then ok_next := false;
          (* 3: NEWORDER contiguity *)
          let no_ids = ref [] in
          Table.index_prefix t.neworder txn ~index:"neworder_pk" ~prefix:[ vi w; vi d ] (fun _ row ->
              no_ids := iv row.(no_o_id) :: !no_ids;
              true);
          (match List.sort Int.compare !no_ids with
          | [] -> ()
          | ids ->
            let lo = List.hd ids and hi = List.nth ids (List.length ids - 1) in
            if hi - lo + 1 <> List.length ids then ok_no := false);
          (* 4: O_OL_CNT = count(order lines), sampled on the last order *)
          if !max_oid > 0 then begin
            match
              Table.index_lookup_first t.orders txn ~index:"orders_pk" ~key:[ vi w; vi d; vi !max_oid ]
            with
            | None -> ok_ol_cnt := false
            | Some (_, orow) ->
              let n = ref 0 in
              Table.index_prefix t.orderline txn ~index:"orderline_pk"
                ~prefix:[ vi w; vi d; vi !max_oid ] (fun _ _ ->
                  incr n;
                  true);
              if !n <> iv orow.(o_ol_cnt) then ok_ol_cnt := false
          end
        done;
        if abs_float (fv wrow.(w_ytd) -. 300_000.0 -. (!dsum -. (30_000.0 *. float_of_int t.sc.districts_per_warehouse))) > 0.01
        then ok_wd := false
      done;
      [
        ("W_YTD = sum(D_YTD)", !ok_wd);
        ("D_NEXT_O_ID-1 = max(O_ID)", !ok_next);
        ("NEWORDER contiguous", !ok_no);
        ("O_OL_CNT = count(ORDER_LINE)", !ok_ol_cnt);
      ])
