#include "chain/validation.hpp"

#include "crypto/u256.hpp"

namespace bng::chain {

ValidationResult check_pow(const BlockHeader& header) {
  if (header.type == BlockType::kMicro)
    return ValidationResult::fail("microblocks carry no proof of work");
  crypto::U256 id_value = crypto::U256::from_hash(header.id());
  if (!(id_value < header.target) && !header.target.is_zero())
    return ValidationResult::fail("hash does not meet target");
  if (header.target.is_zero()) return ValidationResult::fail("zero target");
  return {};
}

ValidationResult check_merkle(const Block& block) {
  if (!block.merkle_ok()) return ValidationResult::fail("merkle root mismatch");
  return {};
}

ValidationResult check_size(const Block& block, const Params& params) {
  const std::size_t limit = block.type() == BlockType::kMicro ? params.max_microblock_size
                                                              : params.max_block_size;
  if (block.wire_size() > limit) return ValidationResult::fail("block exceeds size limit");
  return {};
}

ValidationResult check_microblock(const Block& block, const crypto::PublicKey& epoch_key,
                                  Seconds prev_timestamp, Seconds now, const Params& params,
                                  bool verify_signature) {
  if (block.type() != BlockType::kMicro) return ValidationResult::fail("not a microblock");
  const BlockHeader& h = block.header();
  if (!h.signature) return ValidationResult::fail("microblock missing signature");
  if (h.leader_key) return ValidationResult::fail("microblock must not carry a key");
  // §4.2: "if the timestamp of a microblock is in the future, or if its
  // difference with its predecessor's timestamp is smaller than the minimum,
  // then the microblock is invalid".
  constexpr Seconds kClockTolerance = 1e-9;
  if (h.timestamp > now + kClockTolerance)
    return ValidationResult::fail("microblock timestamp in the future");
  if (h.timestamp - prev_timestamp < params.min_microblock_interval - kClockTolerance)
    return ValidationResult::fail("microblock too soon after predecessor");
  if (block.coinbase_count() > 0) return ValidationResult::fail("coinbase in microblock");
  if (verify_signature && !crypto::verify(epoch_key, h.signing_hash(), *h.signature))
    return ValidationResult::fail("bad microblock signature");
  return {};
}

ValidationResult check_key_block(const Block& block) {
  if (block.type() != BlockType::kKey) return ValidationResult::fail("not a key block");
  if (!block.header().leader_key) return ValidationResult::fail("key block missing leader key");
  if (block.header().signature)
    return ValidationResult::fail("key block must not be signed");
  if (block.txs().empty() || !block.txs()[0]->is_coinbase())
    return ValidationResult::fail("key block missing coinbase");
  // §4: key blocks elect leaders; ledger entries travel in microblocks.
  if (block.coinbase_count() > 1)
    return ValidationResult::fail("duplicate coinbase in key block");
  return {};
}

ValidationResult check_pow_block(const Block& block) {
  if (block.type() != BlockType::kPow) return ValidationResult::fail("not a PoW block");
  if (block.header().leader_key)
    return ValidationResult::fail("Bitcoin block carries a leader key");
  if (block.header().signature) return ValidationResult::fail("Bitcoin block is signed");
  if (block.txs().empty() || !block.txs()[0]->is_coinbase())
    return ValidationResult::fail("missing coinbase");
  return {};
}

}  // namespace bng::chain
