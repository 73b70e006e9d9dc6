type mode =
  | Hotspot_guided
  | Whole_model_guided

type predict =
  | Predict_off
  | Predict_rank

type t = {
  machine : Runtime.Machine.t;
  mode : mode;
  perf_floor : float;
  seed : int;
  baseline_runs : int;
  static_filter : bool;
  static_penalty_budget : float;
  max_variants : int option;
  predict : predict;
  predict_margin : float;
  verify_roundtrip : bool;
}

let default =
  {
    machine = Runtime.Machine.default;
    mode = Hotspot_guided;
    perf_floor = 0.95;
    seed = 42;
    baseline_runs = 10;
    static_filter = false;
    static_penalty_budget = 5.0e4;
    max_variants = None;
    predict = Predict_off;
    predict_margin = 1e6;
    verify_roundtrip = false;
  }

let digest t =
  (* only fields that change campaign results; verify_roundtrip is an
     execution strategy with identical outcomes, so a journaled campaign
     may be resumed with either setting *)
  let canonical =
    String.concat "|"
      [
        Digest.to_hex (Digest.string (Marshal.to_string t.machine []));
        (match t.mode with Hotspot_guided -> "hotspot" | Whole_model_guided -> "whole");
        Printf.sprintf "%h" t.perf_floor;
        string_of_int t.seed;
        string_of_int t.baseline_runs;
        string_of_bool t.static_filter;
        Printf.sprintf "%h" t.static_penalty_budget;
        (match t.max_variants with None -> "-" | Some n -> string_of_int n);
      ]
  in
  (* predict fields are appended only when active, so every digest minted
     before they existed — and every off-mode campaign — is unchanged *)
  let canonical =
    match t.predict with
    | Predict_off -> canonical
    | Predict_rank -> canonical ^ Printf.sprintf "|predict:rank|margin:%h" t.predict_margin
  in
  Digest.to_hex (Digest.string canonical)
