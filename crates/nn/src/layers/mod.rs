//! Concrete layer implementations.

mod activation;
mod attention;
mod conv;
mod exit_head;
mod identity;
mod linear;
mod norm;
mod pool;
mod reshape;
mod residual;
mod sequential;

pub use activation::Relu;
pub use attention::{LayerNorm, MultiHeadAttention, PatchEmbed, PreNorm, TokenMeanPool, TokenMlp};
pub use conv::Conv2d;
pub use exit_head::ExitHead;
pub use identity::Identity;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use reshape::Flatten;
pub use residual::Residual;
pub(crate) use sequential::poison_point;
pub use sequential::Sequential;
