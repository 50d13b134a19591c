// Package core implements the CryptoNN framework (the paper's primary
// contribution, Algorithm 2): training a neural network over functionally
// encrypted data.
//
// Per training iteration the framework inserts two secure computations
// into an otherwise ordinary training step:
//
//   - secure feed-forward: the first layer's W·X (dense) or convolution
//     (Algorithm 3) is evaluated over the encrypted inputs via the secure
//     matrix computation scheme — the server obtains the plaintext
//     pre-activations without ever seeing X;
//   - secure back-propagation / evaluation: the output-layer computations
//     involving the encrypted label Y — the gradient P − Y (element-wise
//     subtraction under FEBO) and the cross-entropy loss −⟨y, log p⟩
//     (inner product under FEIP) — are likewise evaluated over ciphertexts.
//
// Everything in between — the hidden layers, the optimizer — is the
// untouched plaintext machinery of internal/nn, which is precisely the
// paper's point: CryptoNN adapts to any model whose boundary computations
// reduce to the permitted function set F.
//
// One gap in the paper is filled explicitly here: the
// first layer's weight gradient dW = dZ·Xᵀ also involves the encrypted X.
// We realize it with the same FEIP machinery over a second, row-oriented
// encryption of X (securemat.Engine.SecureDotRows), so training truly
// never touches plaintext inputs.
//
// Division of roles follows Fig. 1: clients produce EncryptedBatch values
// (EncryptBatch / EncryptConvBatch) and hold the LabelMap; the server runs
// the Trainer. Both sides talk to the authority only through a
// securemat.Engine session wrapping a securemat.KeyService.
//
// # Performance: the exponentiation engine
//
// Every secure computation above bottoms out in group exponentiations, and
// nearly all of them hit internal/group's fixed-base and multi-exponentia-
// tion engine rather than generic square-and-multiply: g^{x_i} plaintext
// encodings come from a dense per-generator cache, h_i^r encryption powers
// from per-public-key windowed tables (built once per key, shared across
// the worker goroutines of the parallel decryption path), FEIP's
// Π ct_i^{y_i} from Straus interleaved multi-exponentiation, and the
// bounded-dlog recovery from an allocation-free giant-step loop. See the
// internal/group package comment for the design (window sizes, where
// tables live, the thread-safety contract).
package core
