// Known-answer vectors for keys and signatures.
//
// The keys are NG leader keys, `PrivateKey::from_seed(0x6e670000 + node id)`
// (src/ng/ng_node.cpp), so any change to key derivation, scalar arithmetic
// or generator multiplication that alters a published key or a microblock
// signature fails here before it reaches a run digest. The tables were
// generated with the generic implementations (bit-serial reduction mod n and
// double-and-add k*G) and must never be regenerated to make a faster path
// pass. None of the messages below makes `sign` retry its nonce counter (a
// retry needs k, r or s to be 0 mod n, probability ~2^-128), so no vector
// covers that branch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/hex.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"

namespace bng::crypto {
namespace {

struct KeyVector {
  std::uint64_t node;
  const char* pubkey_hex;  // serialize(): x || y, big-endian
};

struct SigVector {
  std::uint64_t node;
  int msg;  // index into messages()
  const char* r_hex;
  const char* s_hex;
};

PrivateKey leader_key(std::uint64_t node) {
  return PrivateKey::from_seed(0x6e670000ull + node);
}

/// Five ordinary digests, then the edge digests 0, 2^256 - 1 (z reduces to
/// 2^256 - 1 - n) and n itself (z reduces to 0).
std::vector<Hash256> messages() {
  std::vector<Hash256> out;
  for (const char* text : {"", "microblock header", "pay alice 5 coins",
                           "bitcoin-ng microblock 1", "bitcoin-ng microblock 2"})
    out.push_back(sha256(text));
  out.push_back(Hash256{});
  Hash256 ones;
  ones.bytes.fill(0xff);
  out.push_back(ones);
  Hash256 n;
  const auto nb = order_n().to_bytes_be();
  std::copy(nb.begin(), nb.end(), n.bytes.begin());
  out.push_back(n);
  return out;
}

const KeyVector kKeys[] = {
    {0, "53d4da65836cd4816efae1f27261ac2df8c4d6cd296c47c8a92217f03beeb596"
         "1660afe449304b07c9a2f47e4af96c9c43bc43fa3203a8564843da0d93be3d16"},
    {1, "6b91dde2e1c7324521dc86075b0e21a7331946108d30bb66dba543861e7f8a35"
         "10d3153cf323c9cecda69b7c9ff9a72e8a5177f9ee9e6ed136cbcf608873eb14"},
    {7, "6b969fca1c5f89fbbf2364fcf4bfb858a63c199e5fee8535d1dbd5d7fb6b74c9"
         "200597a82ac60b1ab54cc98339ae56f8cc1c0c4e6e0eacdb5b288796068eb4d4"},
    {59, "65ebd6cc946478f6ad5dd5caf183ead9b8b1cebfc577102b521a82505e961864"
         "ab15896f53340047715f5a1e082a4c6ab53f371c718ffa25bddde6ba2ff00937"},
    {999, "d9f2471f1c9d40e44ef272a086c643ea9f207a9593c883b766a91db3413c8ba1"
         "3fa525d257584d96d3e1a4b62bc0b2dbbda8e645471043858a605970b84f6834"},
};

const SigVector kSigs[] = {
    {0, 0, "15ed06bd6bf7edc0376efa1a29cee6cbdb8d298508d51a5efb1f7b0e12ed3146",
     "26a780ee0756b2e52a1dd07b5c73ae22e5a0e4b0e9d4d4f408ba620ccc6794aa"},
    {0, 1, "6e790c68e6d5a5dd96f985270a336168f5e7fe291c3d36764f6bb583271d9ae2",
     "0521377a5463080bf10a097a1cf0e9c21e6c7fa25d5a709aa2affe5a015806a1"},
    {0, 2, "41eafc16dcaf1f5f326242ff4f0566f9ae909d3a1184ce230e24d0e497fc8d0e",
     "01914bd7a90cc035147a99b2b31ce0855329b8abb70b2869431106009e4dafe2"},
    {0, 3, "5ca449ce34c3d831db31febb322702e9a429a3d9f32afe16581965ca66fcfd83",
     "4282c5924510639d03263027146f9ef5f42330e77313f2c9a3b6671907082acb"},
    {0, 4, "c9f8fae7b63309a31185622e53022da73826681f705b4f32666542ea3e4dfbd3",
     "1727868ed9b37cf036a5c94ebd0c4906fe0a8f49e7b288d6ae1e3e464ee50815"},
    {0, 5, "c309b38faea713e5649f27dfd597d9969e0ec8c1daf98d09665f1b1d752a7b2b",
     "5241ad784b534250ae2a1e64f786c6a6a57954fb178b1b6354c673ee35f96420"},
    {0, 6, "17b530b92c8a621cd1256058dba3b4c049e65255fecb367c418d987a0051f0a2",
     "63acef72346356a6e40a9244ee0464fcba0ec58b83dc4a3312f108be0732ffb0"},
    {0, 7, "28e124a7c856dbec614d4f0339097926622daafb16d2965cbbfed148d2d94588",
     "1730a00781d98686521639dc6743055703f4bfc2f04006c92b9ff6130b45686a"},
    {1, 0, "1d2a02cd2da28ebd4d55167fc923638d5df4c53112320f540d3ec573fafdac0a",
     "10119fa9116d460a56e817a915a005a6be4c07b3ab8ccc171f2e4a99ca64364b"},
    {1, 1, "ee485b9b05714846d8208901316058ad0c9aa5b36fde41f1063c4213b17cd82c",
     "05c2650764c4d8e81971f3106c76118ff6487983c054babcee6bbb0c4b12425d"},
    {1, 2, "7da774153f59d6dab2d4924358adf988ea6b3baca9f9a0e3fd5c1617dd1aa1aa",
     "256894a03f552633b3b1bcb01f34c003083b1a1e31ffe6e64372651f1e0c3e1b"},
    {1, 3, "6fd9a998755cd6533a7e21d3961328c84eb230b5afb99ec318709b7089b8569a",
     "007974e00b985730d8a9b4f2043fb35a370852d944ad39039eb1d2080e74de3a"},
    {1, 4, "5ab19b656668f23beb3bf3b26e7d38b8316a8f65dafcb77aa625e90ce21ccc9e",
     "7b586016ae775b9d0a483fd594b41a812ee9b9443e52b83ec30e885cd699232f"},
    {1, 5, "af06479f56032cbbd41bd923e9755bc02d478bc73e08dd8d675eed4695f7a04f",
     "2ee808b5bf8d21dba9a305e68c71ea9e509778b84f800d05ba44859376ceffb3"},
    {1, 6, "7b1d68c5ca19f2b1813b9876f8e5fcfd0f30548f48d06ba99c250aaf122cf91d",
     "22452314c4c246d5253cbced80329c26a528c07c372e53b3b002b96fe745996c"},
    {1, 7, "ced623c2528c4d4fe95897544886218ee3cac030c0f26a216a126e66d5cfd73f",
     "0faf62747017f19e8e3580cf3538cc79b2e16d10543a6a02fe5f8801f03518cc"},
    {7, 0, "0e55f06066acb203991aa9851c38a9d2d4be4743910565d0b03b339b67f82748",
     "1b7741f8e9bdb9fb103a6b084025e7700cfb8d73119a0c68ca451d22f854ad5d"},
    {7, 1, "243d7eeb7a5b41e319d9ee94b21e6ffb6be4f76089181445f099a7dd237e5164",
     "16da0b200e606d7ee96f9022bba8a7fa481f8bdd3ab32c1269d90a9338695c5e"},
    {7, 2, "026b94ee1ba8d72ac33663602cce0317c937d3e13690b40716434b0e721ca830",
     "7e8c76e944f8d0e879625acc95034fee137eb0cd2cb1545ce2aafb170ad42e50"},
    {7, 3, "88596219287097ae34b86d60406ed3e866398a3bf344b3715facd99de6a80d06",
     "4b9b8b37426e7ee41c8f5af22ab247d81c4fdd4d49cdebaf549ed8fa1afed8b9"},
    {7, 4, "0854ea26a88663642130cca43df54e321d078cd3b16cf328e26d206965199212",
     "673e7406064575675155e4f9a9608c586aea4344e4f7a18bebf840985453bb6e"},
    {7, 5, "427f5c1979755b1d227d912bf176b3e1008385a62bc05ebcb1cbde7035efca51",
     "5056a268d12f2d59b3a1ebfa661888a5c8fed25bdb2af025436d97b247794f58"},
    {7, 6, "474fa714fa39bf163ead9e4b4f01b355490cb46b4e98efc8703a5b0e1d3da8e2",
     "13e815e957dd71c53492e43610931a5484b7fa84aaeb267b919f2ae57d2bbafd"},
    {7, 7, "6a62ab5e07afad28afdfa1065287e2a67569d243c6526f3b58a4d96b669b9237",
     "55f711d2e3b72bcdbcc79d729943ef2a381f6e67205d8f126c4c9a77dc1aa8a0"},
    {59, 0, "537e48a183b4211a31f340fae8d0f6621402b9df6a5690c434ed7464c674da41",
     "68f9606e027a10ff12ed26ac8338e322244665caa19bc4d9a367245f268a6520"},
    {59, 1, "426813fa556efde2c5c6c5596322619c561c49c0a9bb0be8b92b78674a476cfa",
     "2d8e0c5bea483ab049791bf31f9b80da3333e5190ab172c2d2acef6d5eb756de"},
    {59, 2, "061fd85a17cb1dd01da48bb8090d981160ec5a4e0ea8d7610fd5da8537a8d3d6",
     "7ae57911c23a6cfc35cff40fb0694ccb5ea06456849ceb4f8d2caa8d38e41893"},
    {59, 3, "e2da91a39bdb05a23074a52ad5d4f8ae096d3541a4cbaf1b591446197c53f9eb",
     "7fee2c14bab4e33f019e60493fd38aa9e66c3b8a2681cefe6412230a52a4b8d0"},
    {59, 4, "05093ee207880d7bce00c39f14cbce8d48109d2cd31a70ec3eaeac8d8744bf9f",
     "5df4767757a48a29bc59aa4cec8ee2b465e786f84ec186a1fbcceda9fac0f823"},
    {59, 5, "1a0bf1e8a0b0ba9bb075d23197fa5845e72de7f5b7a8b5422f51e9c7aaf634c4",
     "1e3f55937b9b613802c606e07cf65aeff37d726e2569fc0cf97d2c7b41127d7c"},
    {59, 6, "e2b332648cec617f4516d27ec98dbb6b0c23ee191e3d55ae57d2585b9cb81de9",
     "3f4cfaaa94b5b560f3914e604093acf897c25b730c39b5f8b5c0e4740abeaab2"},
    {59, 7, "ef3daa485473b32eac870f53c43fa86ee129c06e6ae777df96bc3b9d07b5cb1e",
     "67004e384cd9207e3f8d51483aab436667a1fab93cf4b086052a5d4cb61cacf5"},
    {999, 0, "db8cc3293a8dfdf568f83e33ea5e92d44deaabb4a0f1cad16e2da80e72fe4f9e",
     "21cadd6da1102c374352347602166c6c8691ef6ca85f6a5093395800b109f3d1"},
    {999, 1, "743180d3956208546da37f2837e1899377c55380c3bbdad30111e99b73b68b10",
     "76b3074be7de5f181190deef32807cbbe118948a5fa4b3d39b608acf024ff202"},
    {999, 2, "699447ccffee9675f736f801e41df382a302e059f498557998f4cc799b37c3a5",
     "25fbc7ed344220527e1cfb0180c945f17a7e9f52fcd2ca63aef03daa1b628c8c"},
    {999, 3, "3cba2a8da0caf7216b3133961c5c484ccb5bee829565c77b8085d8b2e12a0abf",
     "4a7c95b0dfbcca1abc401e4ada77e9ba9f7e48f37cfd17f4b535ce8eca055503"},
    {999, 4, "c3e5f6345fcaf2a300afe728e9f9e22f96b506de1c3f051a8d3382e14b48ed98",
     "560c5d2ff0fd976a72d3ac5eeb0d32187e0113149e630adc4cfa0ccbb6f218fe"},
    {999, 5, "29aacf64b1fcc3ef4e25a810f7bf0e33e4485bdb339ba518ead7c11662454ea9",
     "08e36c56c9193101ed208bb4594c4b4670a1af84292b581905d9c4841d78fd9b"},
    {999, 6, "6d538d8f7ae4118114f52554b9216d5baf06434b406206627833de57cc020df3",
     "49e97ee56bcc5c7b1cbd055dd2d32261f60b917ee1dcfb2c20838f110eb99d49"},
    {999, 7, "abb075d285518ff2a1fc30d4e838004422bd00d97cde6b1fa0ecca9c2aed761e",
     "3eee571f74170f52e2da75346f539f4d65e01022b31fb9c090391187b4ee7fc2"},
};

TEST(EcdsaVectors, LeaderPublicKeys) {
  for (const auto& v : kKeys) {
    const auto bytes = leader_key(v.node).public_key().serialize();
    EXPECT_EQ(bng::to_hex(bytes), v.pubkey_hex) << "node " << v.node;
  }
}

TEST(EcdsaVectors, LeaderSignatures) {
  const auto msgs = messages();
  for (const auto& v : kSigs) {
    const PrivateKey sk = leader_key(v.node);
    const Signature sig = sign(sk, msgs[v.msg]);
    EXPECT_EQ(sig.r.to_hex(), v.r_hex) << "node " << v.node << " msg " << v.msg;
    EXPECT_EQ(sig.s.to_hex(), v.s_hex) << "node " << v.node << " msg " << v.msg;
    EXPECT_TRUE(verify(sk.public_key(), msgs[v.msg], sig));
  }
}

TEST(EcdsaVectors, SecretThreeIsThreeG) {
  // 3G from the published secp256k1 test vectors.
  const PublicKey pk = PrivateKey{U256(3)}.public_key();
  EXPECT_EQ(pk.point.x.to_hex(),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9");
  EXPECT_TRUE(pk.valid());
}

TEST(EcdsaVectors, SecretNMinusOneIsMinusG) {
  bool borrow;
  const U256 nm1 = U256::sub(order_n(), U256(1), borrow);
  const PublicKey pk = PrivateKey{nm1}.public_key();
  EXPECT_EQ(pk.point.x, generator().x);
  EXPECT_EQ(pk.point.y, U256::sub(field_p(), generator().y, borrow));
}

}  // namespace
}  // namespace bng::crypto
