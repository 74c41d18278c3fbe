// Blocks: Bitcoin PoW blocks, NG key blocks and NG microblocks.
//
// Paper §4: "The protocol introduces two types of blocks: key blocks for
// leader election and microblocks that contain the ledger entries."
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "chain/transaction.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/u256.hpp"

namespace bng::chain {

enum class BlockType : std::uint8_t {
  kPow = 0,    ///< Bitcoin block: PoW + transactions.
  kKey = 1,    ///< NG key block: PoW + leader public key, no ledger entries.
  kMicro = 2,  ///< NG microblock: signed by the epoch key, carries entries.
};

struct BlockHeader {
  BlockType type = BlockType::kPow;
  Hash256 prev;               ///< id of the predecessor block header
  Seconds timestamp = 0;      ///< "current GMT time"
  Hash256 merkle_root;        ///< root over the contained transactions
  crypto::U256 target;        ///< PoW target (kPow / kKey only)
  std::uint64_t nonce = 0;    ///< PoW nonce (kPow / kKey only)
  /// Key blocks carry the public key used to sign the epoch's microblocks
  /// (§4.1). Empty for other types.
  std::optional<crypto::PublicKey> leader_key;
  /// Microblock signature over the header (§4.2). Empty for other types.
  std::optional<crypto::Signature> signature;

  /// Serialize everything except the signature (the signing preimage).
  void serialize_unsigned(ByteWriter& w) const;
  /// Serialize including the signature (the wire format / id preimage).
  void serialize(ByteWriter& w) const;
  static BlockHeader deserialize(ByteReader& r);

  /// Header id: sha256d over the full serialization.
  [[nodiscard]] Hash256 id() const;
  /// Hash the signing preimage (what the leader signs for microblocks).
  [[nodiscard]] Hash256 signing_hash() const;
};

class Block {
 public:
  /// `work` is the proof-of-work weight in difficulty units (0 for
  /// microblocks). In real-PoW mode it is implied by the header target; the
  /// simulator carries it explicitly (§7 "Simulated Mining").
  Block(BlockHeader header, std::vector<TxPtr> txs, std::uint32_t miner, double work = 1.0);

  [[nodiscard]] const BlockHeader& header() const { return header_; }
  [[nodiscard]] const Hash256& id() const { return id_; }
  [[nodiscard]] const std::vector<TxPtr>& txs() const { return txs_; }
  [[nodiscard]] BlockType type() const { return header_.type; }
  [[nodiscard]] bool is_pow() const { return header_.type != BlockType::kMicro; }

  /// Simulation-level identity of the generating miner (for metrics; a real
  /// deployment would recover this from the coinbase).
  [[nodiscard]] std::uint32_t miner() const { return miner_; }

  /// Total wire size: header + transactions.
  [[nodiscard]] std::size_t wire_size() const { return wire_size_; }

  /// PoW weight in difficulty units; 0 for microblocks (§4.2: "microblocks
  /// do not affect the weight of the chain").
  [[nodiscard]] double work() const { return work_; }

  // Transaction facts, counted once by the constructor so that every node
  // accepting the block reads them in O(1) instead of rescanning txs().
  /// Payload transactions: neither coinbase nor poison.
  [[nodiscard]] std::uint32_t payload_tx_count() const { return payload_tx_count_; }
  /// Sum of the payload transactions' fees.
  [[nodiscard]] Amount payload_fee_sum() const { return payload_fee_sum_; }
  [[nodiscard]] std::uint32_t coinbase_count() const { return coinbase_count_; }
  [[nodiscard]] std::uint32_t poison_count() const { return poison_count_; }

  /// Full wire serialization (header + transactions). The inverse of
  /// deserialize(); `miner` and `work` are simulation annotations carried
  /// alongside the consensus payload.
  void serialize(ByteWriter& w) const;
  static std::shared_ptr<const Block> deserialize(ByteReader& r);

  /// Sum of transaction fees.
  [[nodiscard]] Amount total_fees() const;

  /// Recompute the merkle root over txs() and compare with the header.
  [[nodiscard]] bool merkle_ok() const;

 private:
  BlockHeader header_;
  std::vector<TxPtr> txs_;
  Hash256 id_;
  std::size_t wire_size_ = 0;
  std::uint32_t miner_ = 0;
  double work_ = 1.0;
  std::uint32_t payload_tx_count_ = 0;
  std::uint32_t coinbase_count_ = 0;
  std::uint32_t poison_count_ = 0;
  Amount payload_fee_sum_ = 0;
};

using BlockPtr = std::shared_ptr<const Block>;

/// Compute the merkle root over a set of transactions.
Hash256 compute_merkle_root(const std::vector<TxPtr>& txs);

/// Genesis block for a simulation: a single coinbase-like transaction with
/// `n_outputs` outputs of `value_each`, spendable by synthetic transactions.
BlockPtr make_genesis(std::size_t n_outputs, Amount value_each);

}  // namespace bng::chain
