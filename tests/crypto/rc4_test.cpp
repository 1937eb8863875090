#include "crypto/rc4.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace lwm::crypto {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string hex(const std::vector<std::uint8_t>& v) {
  static const char* kDigits = "0123456789ABCDEF";
  std::string out;
  for (const std::uint8_t b : v) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// Classic published RC4 test vectors (key / plaintext / ciphertext).
struct Vector {
  const char* key;
  const char* plaintext;
  const char* cipher_hex;
};

// Print a vector as its key. Without a printer googletest shows the struct's
// raw bytes -- the three string addresses, which change from run to run --
// and gtest_discover_tests puts that text into each case's ctest name.
void PrintTo(const Vector& v, std::ostream* os) { *os << v.key; }

class Rc4KnownAnswerTest : public ::testing::TestWithParam<Vector> {};

TEST_P(Rc4KnownAnswerTest, EncryptMatchesPublishedVector) {
  const Vector& v = GetParam();
  Rc4 rc4(bytes(v.key));
  std::vector<std::uint8_t> data = bytes(v.plaintext);
  rc4.crypt(data);
  EXPECT_EQ(hex(data), v.cipher_hex);
}

TEST_P(Rc4KnownAnswerTest, DecryptIsInverse) {
  const Vector& v = GetParam();
  std::vector<std::uint8_t> data = bytes(v.plaintext);
  Rc4 enc(bytes(v.key));
  enc.crypt(data);
  Rc4 dec(bytes(v.key));
  dec.crypt(data);
  EXPECT_EQ(data, bytes(v.plaintext));
}

INSTANTIATE_TEST_SUITE_P(
    PublishedVectors, Rc4KnownAnswerTest,
    ::testing::Values(Vector{"Key", "Plaintext", "BBF316E8D940AF0AD3"},
                      Vector{"Wiki", "pedia", "1021BF0420"},
                      Vector{"Secret", "Attack at dawn",
                             "45A01F645FC35B383552544B9BF5"}));

TEST(Rc4Test, KeystreamForKeyKey) {
  Rc4 rc4(bytes("Key"));
  EXPECT_EQ(hex(rc4.keystream(10)), "EB9F7781B734CA72A719");
}

TEST(Rc4Test, SkipAdvancesKeystream) {
  Rc4 a(bytes("Key"));
  Rc4 b(bytes("Key"));
  a.skip(5);
  const auto rest = b.keystream(10);
  const auto tail = a.keystream(5);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), rest.begin() + 5));
}

TEST(Rc4Test, KeyLimitsEnforced) {
  EXPECT_THROW(Rc4(bytes("")), std::invalid_argument);
  EXPECT_NO_THROW(Rc4(std::vector<std::uint8_t>(256, 0x42)));
  EXPECT_THROW(Rc4(std::vector<std::uint8_t>(257, 0x42)), std::invalid_argument);
}

TEST(Rc4Test, DifferentKeysDiverge) {
  Rc4 a(bytes("KeyA"));
  Rc4 b(bytes("KeyB"));
  EXPECT_NE(a.keystream(16), b.keystream(16));
}

}  // namespace
}  // namespace lwm::crypto
