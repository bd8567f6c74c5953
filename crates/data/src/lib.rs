//! # wa-data
//!
//! Deterministic synthetic image-classification datasets shaped like the
//! paper's benchmarks (CIFAR-10, CIFAR-100, MNIST).
//!
//! **Substitution notice** (see the README's *Substitutions* section):
//! this reproduction runs in an offline environment without the real
//! datasets. The phenomena under
//! study — numerical error of large-tile Winograd under quantization and
//! its recovery via Winograd-aware training — are properties of the
//! convolution *arithmetic*, not of natural-image statistics, so we
//! substitute class-conditional synthetic images: each class is a
//! distinct combination of oriented sinusoidal texture, geometric mask
//! and channel balance, perturbed by noise and random shifts. A CNN must
//! still learn localized oriented features to solve them, exercising the
//! same code paths.
//!
//! # Example
//!
//! ```
//! use wa_data::cifar10_like;
//!
//! let ds = cifar10_like(20, 16, 42);
//! assert_eq!(ds.images.shape(), &[200, 3, 16, 16]);
//! assert_eq!(ds.classes, 10);
//! let batches = ds.batches(32);
//! assert_eq!(batches[0].0.dim(0), 32);
//! ```

mod dataset;
mod generators;

pub use dataset::Dataset;
pub use generators::{cifar100_like, cifar10_like, mnist_like};
