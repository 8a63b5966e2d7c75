//! Campaign persistence: the on-disk schema shared by the durable event
//! log, checkpoints and deterministic replay.
//!
//! A campaign log is a header followed by one [`REC_TICK`] record per
//! simulated tick and a single trailing [`REC_FINISH`] record:
//!
//! * **TICK** carries the per-client displayed UberX surge and EWT for
//!   that tick, as raw `f32` bit patterns — `NaN` gaps survive byte-exact.
//! * **FINISH** carries every other [`CampaignData`] field (estimator,
//!   transition tallies, API probe series, ground truth, …).
//!
//! [`write_log`] writes the whole log once, from a finished campaign,
//! through [`surgescope_store::write_atomic`], so a log on disk is always
//! complete: an interrupted campaign leaves its checkpoint, never a log.
//! [`replay_campaign`] folds the TICK records back into the per-client
//! series and merges the FINISH record, reconstructing the `CampaignData`
//! **without re-running the simulation**. Because every collection is
//! serialized in a canonical order (maps sorted, sets sorted, floats as
//! bit patterns), two `CampaignData` values are bit-identical iff their
//! [`campaign_encoded`] bytes are equal — which is how the
//! checkpoint/resume tests assert equality down to NaN payloads. Like a
//! checkpoint, that encoding streams the per-tick series into bytes.

use crate::campaign::CampaignData;
use crate::estimate::SupplyDemandEstimator;
use crate::observe::ClientSpec;
use crate::transitions::TransitionTracker;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use surgescope_city::CityModel;
use surgescope_marketplace::GroundTruth;
use surgescope_store::{
    encode_key, encode_map_header, encode_seq_header, encode_u64, encode_value, write_atomic,
    LogReader, StoreError,
};

/// Record kind: one simulated tick's per-client surge/EWT row.
pub const REC_TICK: u8 = 0x10;
/// Record kind: the closing record carrying the rest of `CampaignData`.
pub const REC_FINISH: u8 = 0x20;

/// Encodes an `f32` slice as its exact bit patterns (`NaN`-safe).
pub(crate) fn f32s_to_bits(xs: &[f32]) -> Value {
    Value::Seq(xs.iter().map(|x| Value::U64(x.to_bits() as u64)).collect())
}

/// Decodes [`f32s_to_bits`] output.
pub(crate) fn bits_to_f32s(v: &Value) -> Result<Vec<f32>, serde::Error> {
    Ok(Vec::<u32>::from_value(v)?.into_iter().map(f32::from_bits).collect())
}

/// Encodes a ragged `f32` matrix as bit patterns.
pub(crate) fn f32_rows_to_bits(rows: &[Vec<f32>]) -> Value {
    Value::Seq(rows.iter().map(|r| f32s_to_bits(r)).collect())
}

/// Streams [`f32_rows_to_bits`]'s encoding into `out` sample by sample,
/// byte-identical to encoding the tree but without building it.
pub(crate) fn encode_f32_rows(rows: &[Vec<f32>], out: &mut Vec<u8>) {
    encode_seq_header(rows.len(), out);
    for row in rows {
        encode_seq_header(row.len(), out);
        for x in row {
            encode_u64(u64::from(x.to_bits()), out);
        }
    }
}

/// Decodes [`f32_rows_to_bits`] output.
pub(crate) fn bits_to_f32_rows(v: &Value) -> Result<Vec<Vec<f32>>, serde::Error> {
    match v {
        Value::Seq(rows) => rows.iter().map(bits_to_f32s).collect(),
        _ => Err(serde::Error::custom("expected seq of f32 bit rows")),
    }
}

/// Surge-area adjacency lists of a city, as plain indices.
pub(crate) fn area_adjacency(city: &CityModel) -> Vec<Vec<usize>> {
    city.adjacency.iter().map(|v| v.iter().map(|a| a.0).collect()).collect()
}

/// Parses a TICK record back into `(surge_row, ewt_row)`.
pub(crate) fn parse_tick(v: &Value) -> Result<(Vec<f32>, Vec<f32>), serde::Error> {
    Ok((bits_to_f32s(v.field("s")?)?, bits_to_f32s(v.field("e")?)?))
}

/// Serializes everything in a [`CampaignData`] *except* the per-tick
/// `client_surge`/`client_ewt` series (those live in the TICK records).
pub(crate) fn finish_value(data: &CampaignData) -> Value {
    Value::Map(vec![
        ("city".into(), data.city.to_value()),
        ("clients".into(), data.clients.to_value()),
        ("client_area".into(), data.client_area.to_value()),
        ("estimator".into(), data.estimator.to_value()),
        ("api_surge".into(), f32_rows_to_bits(&data.api_surge)),
        ("api_ewt".into(), f32_rows_to_bits(&data.api_ewt)),
        ("avg_visible".into(), f32_rows_to_bits(&data.avg_visible)),
        ("transitions".into(), data.transitions.save_state()),
        ("client_daily_cars".into(), data.client_daily_cars.to_value()),
        ("client_interval_cars".into(), data.client_interval_cars.to_value()),
        ("client_mean_ewt".into(), data.client_mean_ewt.to_value()),
        ("client_delivered".into(), data.client_delivered.to_value()),
        ("tick_secs".into(), data.tick_secs.to_value()),
        ("ticks".into(), (data.ticks as u64).to_value()),
        ("intervals".into(), (data.intervals as u64).to_value()),
        ("truth".into(), data.truth.to_value()),
    ])
}

/// Writes `data`'s whole log at `path` (see the module docs), atomically.
/// Each TICK payload is encoded straight from the per-client series,
/// byte-identical to the `{"s": [bits..], "e": [bits..]}` tree
/// [`parse_tick`] reads. Returns the file's size in bytes and its record
/// count.
pub(crate) fn write_log(
    path: &Path,
    config_hash: u64,
    data: &CampaignData,
) -> Result<(u64, u64), StoreError> {
    write_atomic(path, config_hash, |w| {
        let mut rec = Vec::new();
        for t in 0..data.ticks {
            rec.clear();
            encode_map_header(2, &mut rec);
            for (key, series) in [("s", &data.client_surge), ("e", &data.client_ewt)] {
                encode_key(key, &mut rec);
                encode_seq_header(series.len(), &mut rec);
                for s in series {
                    encode_u64(u64::from(s[t].to_bits()), &mut rec);
                }
            }
            w.append_raw(REC_TICK, &rec)?;
        }
        w.append(REC_FINISH, &finish_value(data))
    })
}

/// Canonical byte encoding of a campaign; two campaigns are bit-identical
/// (down to NaN payloads) iff these byte strings are equal. One codec map:
/// the FINISH record's fields, then the per-tick `client_surge` and
/// `client_ewt` series, streamed sample by sample as checkpoints stream
/// them rather than built as a tree of one 32-byte `Value` per sample.
pub fn campaign_encoded(data: &CampaignData) -> Vec<u8> {
    let Value::Map(fields) = finish_value(data) else { unreachable!() };
    let series = [("client_surge", &data.client_surge), ("client_ewt", &data.client_ewt)];
    let mut out = Vec::new();
    encode_map_header(fields.len() + series.len(), &mut out);
    for (key, v) in &fields {
        encode_key(key, &mut out);
        encode_value(v, &mut out);
    }
    for (key, rows) in series {
        encode_key(key, &mut out);
        encode_f32_rows(rows, &mut out);
    }
    out
}

/// Rebuilds a [`CampaignData`] from a FINISH record plus the per-client
/// series (either replayed from TICK records or parsed from a full value).
fn campaign_from_parts(
    finish: &Value,
    client_surge: Vec<Vec<f32>>,
    client_ewt: Vec<Vec<f32>>,
) -> Result<CampaignData, StoreError> {
    let city = CityModel::from_value(finish.field("city")?)?;
    let transitions =
        TransitionTracker::restore_state(area_adjacency(&city), finish.field("transitions")?)?;
    let data = CampaignData {
        clients: Vec::<ClientSpec>::from_value(finish.field("clients")?)?,
        client_area: Vec::<Option<usize>>::from_value(finish.field("client_area")?)?,
        estimator: SupplyDemandEstimator::from_value(finish.field("estimator")?)?,
        client_surge,
        client_ewt,
        api_surge: bits_to_f32_rows(finish.field("api_surge")?)?,
        api_ewt: bits_to_f32_rows(finish.field("api_ewt")?)?,
        avg_visible: bits_to_f32_rows(finish.field("avg_visible")?)?,
        transitions,
        client_daily_cars: Vec::<Vec<u32>>::from_value(finish.field("client_daily_cars")?)?,
        client_interval_cars: Vec::<f64>::from_value(finish.field("client_interval_cars")?)?,
        client_mean_ewt: Vec::<f64>::from_value(finish.field("client_mean_ewt")?)?,
        client_delivered: Vec::<u64>::from_value(finish.field("client_delivered")?)?,
        tick_secs: u64::from_value(finish.field("tick_secs")?)?,
        ticks: u64::from_value(finish.field("ticks")?)? as usize,
        intervals: u64::from_value(finish.field("intervals")?)? as usize,
        truth: GroundTruth::from_value(finish.field("truth")?)?,
        city,
    };
    if data.client_surge.len() != data.clients.len()
        || data.client_ewt.len() != data.clients.len()
    {
        return Err(StoreError::Schema(format!(
            "series cover {} clients, campaign has {}",
            data.client_surge.len(),
            data.clients.len()
        )));
    }
    if data.client_surge.iter().chain(&data.client_ewt).any(|s| s.len() != data.ticks) {
        return Err(StoreError::Schema("per-client series length != ticks".into()));
    }
    Ok(data)
}

/// Deterministically replays a campaign log into the [`CampaignData`] it
/// recorded, **without re-running the simulation**: TICK records are
/// transposed into the per-client series and the FINISH record supplies
/// everything else. Errors cleanly (no panic) on truncated or corrupt
/// logs, or if the FINISH record is missing (an interrupted run — resume
/// from its checkpoint instead).
pub fn replay_campaign(path: &Path) -> Result<CampaignData, StoreError> {
    let reader = LogReader::open(path)?;
    let mut surge_rows: Vec<Vec<f32>> = Vec::new();
    let mut ewt_rows: Vec<Vec<f32>> = Vec::new();
    let mut finish: Option<Value> = None;
    for rec in reader.iter() {
        let rec = rec?;
        match rec.kind {
            REC_TICK => {
                if finish.is_some() {
                    return Err(StoreError::Schema("TICK record after FINISH".into()));
                }
                let (s, e) = parse_tick(&rec.value()?)?;
                surge_rows.push(s);
                ewt_rows.push(e);
            }
            REC_FINISH => {
                if finish.replace(rec.value()?).is_some() {
                    return Err(StoreError::Schema("duplicate FINISH record".into()));
                }
            }
            k => return Err(StoreError::Schema(format!("unknown record kind {k:#04x}"))),
        }
    }
    let finish = finish.ok_or_else(|| {
        StoreError::Schema("log has no FINISH record (interrupted run?)".into())
    })?;
    // Transpose [tick][client] rows into [client][tick] series.
    let n = surge_rows.first().map_or(0, Vec::len);
    if surge_rows.iter().chain(&ewt_rows).any(|r| r.len() != n) {
        return Err(StoreError::Schema("ragged TICK rows".into()));
    }
    let ticks = surge_rows.len();
    let transpose = |rows: &[Vec<f32>]| -> Vec<Vec<f32>> {
        (0..n)
            .map(|c| {
                let mut series = Vec::with_capacity(ticks);
                series.extend(rows.iter().map(|r| r[c]));
                series
            })
            .collect()
    };
    campaign_from_parts(&finish, transpose(&surge_rows), transpose(&ewt_rows))
}
