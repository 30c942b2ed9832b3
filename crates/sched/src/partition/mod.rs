//! Spatial block partitioning heuristics (Section 5.2 and Appendix A).

mod appendix;
mod lts_rlx;

pub use appendix::{
    downsampler_blocks, downsampler_partition, elementwise_blocks, elementwise_partition,
    upsampler_blocks, upsampler_partition,
};
pub use lts_rlx::{spatial_block_partition, spatial_blocks, SbVariant};
