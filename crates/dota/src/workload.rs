//! Transformer inference workloads for the accelerator case study.
//!
//! The paper evaluates DOTA with the two DeiT vision transformers its
//! source publication uses. What the memory system sees is a
//! streaming-read-dominant traffic pattern: weight matrices stream once
//! per inference, activations spill and reload between layers.

use comet_units::{ByteCount, Time};
use memsim::{AccessPattern, MemOp, MemRequest, WorkloadProfile};

/// A transformer model's memory-relevant shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerWorkload {
    /// Model name.
    pub name: String,
    /// Parameter count.
    pub parameters: u64,
    /// Forward-pass compute, GFLOPs.
    pub gflops: f64,
    /// Bytes moved from main memory per inference (weights at fp16 plus
    /// activation spills).
    pub bytes_per_inference: ByteCount,
    /// Fraction of traffic that is reads (weights dominate).
    pub read_fraction: f64,
}

impl TransformerWorkload {
    /// DeiT-Tiny: 5.7 M parameters, 1.3 GFLOPs.
    pub fn deit_tiny() -> Self {
        let params: u64 = 5_700_000;
        TransformerWorkload {
            name: "DeiT-T".into(),
            parameters: params,
            gflops: 1.3,
            // fp16 weights + ~1.2x activation spill factor.
            bytes_per_inference: ByteCount::new((params * 2) * 22 / 10),
            read_fraction: 0.9,
        }
    }

    /// DeiT-Base: 86 M parameters, 17.6 GFLOPs.
    pub fn deit_base() -> Self {
        let params: u64 = 86_000_000;
        TransformerWorkload {
            name: "DeiT-B".into(),
            parameters: params,
            gflops: 17.6,
            bytes_per_inference: ByteCount::new((params * 2) * 22 / 10),
            read_fraction: 0.9,
        }
    }

    /// Both case-study models, paper order.
    pub fn fig10_models() -> Vec<TransformerWorkload> {
        vec![Self::deit_tiny(), Self::deit_base()]
    }

    /// A batched variant: weights are re-streamed once per batch while
    /// activation traffic scales with the batch size, so larger batches
    /// raise arithmetic intensity and *lower* the per-sample memory
    /// traffic — the standard serving trade-off.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn batched(&self, batch: u32) -> Self {
        assert!(batch > 0, "batch must be nonzero");
        let weights = self.parameters * 2;
        let activations = self.bytes_per_inference.value() - weights;
        TransformerWorkload {
            name: format!("{}xb{batch}", self.name),
            parameters: self.parameters,
            gflops: self.gflops * batch as f64,
            // Whole-batch traffic: one weight stream + per-sample spills.
            bytes_per_inference: ByteCount::new(weights + activations * batch as u64),
            read_fraction: {
                // Reads are the weight stream plus re-loaded spills; the
                // write share grows with the batch's activation traffic.
                let writes = (1.0 - self.read_fraction) * (activations * batch as u64) as f64;
                let total = (weights + activations * batch as u64) as f64;
                1.0 - writes / total
            },
        }
    }

    /// Per-sample bytes moved at a given batch size (amortizes weights).
    pub fn bytes_per_sample(&self, batch: u32) -> ByteCount {
        ByteCount::new(self.batched(batch).bytes_per_inference.value() / batch as u64)
    }

    /// The model's traffic as a [`memsim::WorkloadProfile`] — the stream
    /// adapter for `comet-serve` tenants: streaming accesses over the
    /// weight region at the tensor core's demand intensity (a line every
    /// 0.25 ns), with the model's read fraction deciding the write share.
    /// Where [`TransformerWorkload::trace`] materializes one replayable
    /// vector, this shape can sit behind any arrival process or
    /// closed-loop client mix, beside SPEC-like tenants in one mux.
    pub fn profile(&self, requests: usize) -> WorkloadProfile {
        let weight_region = (self.parameters * 2).next_power_of_two().max(1 << 21);
        WorkloadProfile {
            name: format!("{}-stream", self.name),
            read_fraction: self.read_fraction,
            footprint: ByteCount::new(weight_region),
            pattern: AccessPattern::Stream,
            interarrival: Time::from_nanos(0.25),
            requests,
            line_bytes: 128,
        }
    }

    /// The memory request stream of `inferences` back-to-back inferences,
    /// scaled down by `sampling` (model 1/sampling of the traffic to keep
    /// simulations fast; EPB is traffic-shape, not length, dependent).
    ///
    /// The structure matters: weights stream as reads through the weight
    /// region, while activation spills write to a *separate* region with
    /// tile-sized strides (a tiled tensor engine never interleaves writes
    /// into the weight stream). The photonic tensor core demands a line
    /// every 0.25 ns in the aggregate (hundreds of GB/s — the feed rates
    /// that motivate photonic memory in the first place).
    ///
    /// # Panics
    ///
    /// Panics if `sampling == 0` or `inferences == 0`.
    pub fn trace(&self, inferences: u32, sampling: u64, _seed: u64) -> Vec<MemRequest> {
        assert!(sampling > 0, "sampling must be nonzero");
        assert!(inferences > 0, "need at least one inference");
        let line = 128u64;
        let bytes = self.bytes_per_inference.value() * inferences as u64 / sampling;
        let requests = (bytes / line).max(1) as usize;
        let weight_region = (self.parameters * 2).next_power_of_two().max(1 << 21);
        // Activation tiles stride one full subarray block apart (plus one
        // line so consecutive spills rotate across banks) so programming
        // pulses overlap and no single bank becomes the spill hotspot.
        let act_stride = (512 * 4 + 1) * line;
        let interarrival = Time::from_nanos(0.25);
        let write_period = (1.0 / (1.0 - self.read_fraction)).round() as usize;

        let mut out = Vec::with_capacity(requests);
        let mut weight_cursor = 0u64;
        let mut act_cursor = 0u64;
        for i in 0..requests {
            let arrival = interarrival * i as f64;
            if (i + 1) % write_period == 0 {
                let addr = weight_region + (act_cursor * act_stride) % weight_region;
                act_cursor += 1;
                out.push(MemRequest::new(
                    i as u64,
                    arrival,
                    MemOp::Write,
                    addr,
                    ByteCount::new(line),
                ));
            } else {
                let addr = (weight_cursor * line) % weight_region;
                weight_cursor += 1;
                out.push(MemRequest::new(
                    i as u64,
                    arrival,
                    MemOp::Read,
                    addr,
                    ByteCount::new(line),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_shapes() {
        let t = TransformerWorkload::deit_tiny();
        let b = TransformerWorkload::deit_base();
        assert!(b.parameters > 10 * t.parameters);
        assert!(b.bytes_per_inference.value() > b.parameters * 2);
        assert!((b.gflops / t.gflops - 13.5).abs() < 0.1);
    }

    #[test]
    fn trace_sizes_scale_with_model() {
        let t = TransformerWorkload::deit_tiny().trace(1, 100, 7);
        let b = TransformerWorkload::deit_base().trace(1, 100, 7);
        assert!(b.len() > 10 * t.len());
        assert!(!t.is_empty());
    }

    #[test]
    fn traces_are_read_dominant_streams() {
        let trace = TransformerWorkload::deit_tiny().trace(1, 50, 3);
        let reads = trace.iter().filter(|r| r.op.is_read()).count() as f64;
        assert!(reads / trace.len() as f64 > 0.85);
    }

    #[test]
    #[should_panic(expected = "sampling")]
    fn zero_sampling_rejected() {
        let _ = TransformerWorkload::deit_tiny().trace(1, 0, 0);
    }

    #[test]
    fn family_is_ordered_by_size() {
        let family = TransformerWorkload::fig10_models();
        for w in family.windows(2) {
            assert!(w[1].parameters > w[0].parameters);
            assert!(w[1].gflops > w[0].gflops);
            assert!(w[1].bytes_per_inference > w[0].bytes_per_inference);
        }
    }

    #[test]
    fn batching_amortizes_weight_traffic() {
        let t = TransformerWorkload::deit_base();
        // Per-sample traffic falls monotonically with batch size...
        let mut last = u64::MAX;
        for batch in [1u32, 2, 4, 8, 16] {
            let per_sample = t.bytes_per_sample(batch).value();
            assert!(per_sample < last, "batch {batch}: {per_sample} >= {last}");
            last = per_sample;
        }
        // ...but floors at the activation traffic (weights fully amortized).
        let activations = t.bytes_per_inference.value() - t.parameters * 2;
        assert!(t.bytes_per_sample(1024).value() >= activations);
        assert!(t.bytes_per_sample(1024).value() < activations + activations / 10);
    }

    #[test]
    fn batching_shifts_mix_toward_writes() {
        let t = TransformerWorkload::deit_tiny();
        let b1 = t.batched(1);
        let b16 = t.batched(16);
        assert!(b16.read_fraction < b1.read_fraction);
        assert!(b16.read_fraction > 0.5, "weights still dominate");
        // Batch 1 preserves the original traffic volume.
        assert_eq!(b1.bytes_per_inference, t.bytes_per_inference);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_rejected() {
        let _ = TransformerWorkload::deit_tiny().batched(0);
    }

    #[test]
    fn profile_adapter_matches_trace_character() {
        let model = TransformerWorkload::deit_base();
        let p = model.profile(1000);
        assert_eq!(p.name, "DeiT-B-stream");
        assert_eq!(p.line_bytes, 128);
        assert!((p.read_fraction - model.read_fraction).abs() < 1e-12);
        // Footprint covers the weight region the trace walks.
        let max_trace_addr = model
            .trace(1, 100, 0)
            .iter()
            .map(|r| r.address)
            .max()
            .unwrap();
        assert!(p.footprint.value() >= model.parameters * 2);
        assert!(max_trace_addr < 2 * p.footprint.value());
        // Generates a valid stream (the serve shape path consumes this).
        let reqs = p.generate(3);
        assert_eq!(reqs.len(), 1000);
        assert!(reqs.iter().all(|r| r.address < p.footprint.value()));
    }
}
