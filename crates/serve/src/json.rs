//! The JSON module lives in `viralcast-obs` (writer and strict parser
//! over one value tree); these are its reading half under the path the
//! endpoint codecs, the cluster crate and the benchmark import.

pub use viralcast_obs::json::{as_arr, as_f64, as_u64, get, parse};
