//! The Horovod runtime knobs the paper tunes.
//!
//! Names and defaults follow Horovod 0.16–0.19 (the paper's era):
//! `HOROVOD_FUSION_THRESHOLD` defaulted to 64 MB and
//! `HOROVOD_CYCLE_TIME` to 5 ms.

use collectives::CodecKind;

/// Horovod runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HorovodConfig {
    /// `HOROVOD_FUSION_THRESHOLD` — fusion buffer capacity in bytes.
    /// 0 disables fusion (every tensor becomes its own allreduce).
    pub fusion_threshold: u64,
    /// `HOROVOD_CYCLE_TIME` — how often the background coordinator wakes
    /// to collect ready tensors, in seconds. Must be positive.
    pub cycle_time: f64,
    /// `HOROVOD_CACHE_CAPACITY > 0` — the response cache replaces the
    /// full tensor-name negotiation with a bit-vector check.
    pub response_cache: bool,
    /// `HOROVOD_HIERARCHICAL_ALLREDUCE` — force the two-level algorithm
    /// regardless of the MPI library's own selection table.
    pub hierarchical_allreduce: bool,
    /// `HOROVOD_COMPRESSION` — gradient compression before allreduce,
    /// modelled by its real codec's wire format: fp16 halves the wire
    /// bytes at the cost of a compress/decompress pass and reduced
    /// mantissa; the quantizing and sparsifying codecs shrink the wire
    /// further (the accuracy side of all of them is exercised for real
    /// in `trainer::real` via [`collectives::compression`]).
    pub compression: CodecKind,
}

impl Default for HorovodConfig {
    /// Paper-era defaults: 64 MB fusion, 5 ms cycle, cache on,
    /// hierarchical off.
    fn default() -> Self {
        HorovodConfig {
            fusion_threshold: 64 * 1024 * 1024,
            cycle_time: 5e-3,
            response_cache: true,
            hierarchical_allreduce: false,
            compression: CodecKind::None,
        }
    }
}

impl HorovodConfig {
    pub fn validate(&self) {
        assert!(
            self.cycle_time > 0.0 && self.cycle_time.is_finite(),
            "cycle time must be positive, got {}",
            self.cycle_time
        );
    }

    /// Builder-style setters for sweep code.
    pub fn with_fusion(mut self, bytes: u64) -> Self {
        self.fusion_threshold = bytes;
        self
    }

    pub fn with_cycle(mut self, seconds: f64) -> Self {
        self.cycle_time = seconds;
        self
    }

    pub fn with_cache(mut self, on: bool) -> Self {
        self.response_cache = on;
        self
    }

    pub fn with_hierarchical(mut self, on: bool) -> Self {
        self.hierarchical_allreduce = on;
        self
    }

    pub fn with_compression(mut self, c: CodecKind) -> Self {
        self.compression = c;
        self
    }

    /// A compact `KEY=VALUE` rendering, like the env the paper reports.
    pub fn render_env(&self) -> String {
        format!(
            "HOROVOD_FUSION_THRESHOLD={} HOROVOD_CYCLE_TIME={:.1} HOROVOD_CACHE_CAPACITY={} HOROVOD_HIERARCHICAL_ALLREDUCE={} HOROVOD_COMPRESSION={}",
            self.fusion_threshold,
            self.cycle_time * 1e3,
            if self.response_cache { 1024 } else { 0 },
            u8::from(self.hierarchical_allreduce),
            self.compression.name(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_era() {
        let c = HorovodConfig::default();
        assert_eq!(c.fusion_threshold, 64 << 20);
        assert!((c.cycle_time - 5e-3).abs() < 1e-12);
        assert!(c.response_cache);
        assert!(!c.hierarchical_allreduce);
        assert_eq!(c.compression, CodecKind::None);
        c.validate();
    }

    #[test]
    fn builder_chain() {
        let c = HorovodConfig::default()
            .with_fusion(8 << 20)
            .with_cycle(1e-3)
            .with_cache(false)
            .with_hierarchical(true);
        assert_eq!(c.fusion_threshold, 8 << 20);
        assert!((c.cycle_time - 1e-3).abs() < 1e-12);
        assert!(!c.response_cache);
        assert!(c.hierarchical_allreduce);
    }

    #[test]
    #[should_panic(expected = "cycle time must be positive")]
    fn zero_cycle_rejected() {
        HorovodConfig::default().with_cycle(0.0).validate();
    }

    #[test]
    fn compression_wire_bytes() {
        assert_eq!(CodecKind::None.encoded_len(100 / 4), 100);
        assert_eq!(CodecKind::Fp16.encoded_len(100 / 4), 50);
        let c = HorovodConfig::default().with_compression(CodecKind::Fp16);
        assert!(c.render_env().contains("HOROVOD_COMPRESSION=fp16"));
    }

    #[test]
    fn quantized_wire_bytes_match_real_codec_formats() {
        // 1 MiB of fp32 gradients = 262144 elements.
        let bytes = 1u64 << 20;
        let n = (bytes / 4) as usize;
        for c in CodecKind::ALL {
            let env = HorovodConfig::default().with_compression(c).render_env();
            assert!(env.contains(&format!("HOROVOD_COMPRESSION={}", c.name())), "{env}");
        }
        // Int8: 1 scale f32 per 256-elem chunk -> ratio just under 4x.
        let r = bytes as f64 / CodecKind::Int8.encoded_len(n) as f64;
        assert!(r > 3.9 && r < 4.0, "int8 ratio {r}");
        // Int4: two elements per byte + headers -> just under 8x.
        let r = bytes as f64 / CodecKind::Int4.encoded_len(n) as f64;
        assert!(r > 7.7 && r < 8.0, "int4 ratio {r}");
        // TopK keeps n/8 (index,value) pairs -> exactly 4x on multiples of 8.
        assert_eq!(CodecKind::TopK.encoded_len(n) as u64, bytes / 4);
        assert!(HorovodConfig::default()
            .with_compression(CodecKind::Int4)
            .render_env()
            .contains("HOROVOD_COMPRESSION=int4"));
    }

    #[test]
    fn env_rendering() {
        let env = HorovodConfig::default().render_env();
        assert!(env.contains("HOROVOD_FUSION_THRESHOLD=67108864"));
        assert!(env.contains("HOROVOD_CYCLE_TIME=5.0"));
        assert!(env.contains("HOROVOD_CACHE_CAPACITY=1024"));
    }
}
