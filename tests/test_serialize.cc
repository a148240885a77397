/** @file Unit tests for tensor serialization. */
#include <algorithm>
#include <sstream>
#include <streambuf>
#include <string>

#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/tensor/serialize.h"

namespace shredder {
namespace {

TEST(Serialize, RoundTripRank1)
{
    Tensor t = Tensor::from_vector({1.5f, -2.5f, 3.25f});
    Tensor u = tensor_from_bytes(tensor_to_bytes(t));
    EXPECT_EQ(u.shape(), t.shape());
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(t, u), 0.0);
}

TEST(Serialize, RoundTripRank4)
{
    Rng rng(4);
    Tensor t = Tensor::normal(Shape({2, 3, 4, 5}), rng);
    Tensor u = tensor_from_bytes(tensor_to_bytes(t));
    EXPECT_EQ(u.shape(), t.shape());
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(t, u), 0.0);
}

TEST(Serialize, SizeMatchesPrediction)
{
    Rng rng(5);
    Tensor t = Tensor::normal(Shape({7, 9}), rng);
    const std::string bytes = tensor_to_bytes(t);
    EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), serialized_size(t));
    // 8-byte header + 2 dims × 8 + 63 floats × 4.
    EXPECT_EQ(serialized_size(t), 8 + 16 + 63 * 4);
}

TEST(Serialize, StreamCarriesMultipleTensors)
{
    Rng rng(6);
    Tensor a = Tensor::normal(Shape({3}), rng);
    Tensor b = Tensor::normal(Shape({2, 2}), rng);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_tensor(ss, a);
    write_tensor(ss, b);
    Tensor a2 = read_tensor(ss);
    Tensor b2 = read_tensor(ss);
    EXPECT_EQ(a2.shape(), a.shape());
    EXPECT_EQ(b2.shape(), b.shape());
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(b, b2), 0.0);
}

TEST(SerializeChecked, RoundTripMatchesFatalReader)
{
    Rng rng(7);
    Tensor t = Tensor::normal(Shape({3, 5}), rng);
    std::istringstream is(tensor_to_bytes(t), std::ios::binary);
    Tensor u = read_tensor_checked(is);
    EXPECT_EQ(u.shape(), t.shape());
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(t, u), 0.0);
}

TEST(SerializeChecked, BadMagicThrowsInsteadOfExiting)
{
    std::istringstream is("XXXXYYYYZZZZ", std::ios::binary);
    EXPECT_THROW(read_tensor_checked(is), SerializeError);
}

TEST(SerializeChecked, TruncationThrowsInsteadOfExiting)
{
    Tensor t = Tensor::from_vector({1, 2, 3, 4});
    std::string bytes = tensor_to_bytes(t);
    for (std::size_t keep = 0; keep + 1 < bytes.size(); keep += 3) {
        std::istringstream is(bytes.substr(0, keep), std::ios::binary);
        EXPECT_THROW(read_tensor_checked(is), SerializeError) << keep;
    }
}

TEST(SerializeChecked, WirePrimitivesRoundTrip)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    wire::write_u8(ss, 7);
    wire::write_u32(ss, 123456789u);
    wire::write_u64(ss, 0xDEADBEEFCAFEULL);
    wire::write_f32(ss, -2.5f);
    wire::write_f64(ss, 3.25);
    wire::write_string(ss, "shredder");
    wire::write_shape(ss, Shape({2, 3, 4}));
    EXPECT_EQ(wire::read_u8(ss), 7);
    EXPECT_EQ(wire::read_u32(ss), 123456789u);
    EXPECT_EQ(wire::read_u64(ss), 0xDEADBEEFCAFEULL);
    EXPECT_EQ(wire::read_f32(ss), -2.5f);
    EXPECT_EQ(wire::read_f64(ss), 3.25);
    EXPECT_EQ(wire::read_string(ss), "shredder");
    EXPECT_EQ(wire::read_shape(ss), Shape({2, 3, 4}));
}

TEST(SerializeChecked, ImplausibleElementCountThrowsTyped)
{
    // A crafted header may declare dims that pass the per-dim bound
    // but multiply to an absurd (or int64-overflowing) element count.
    // The typed contract must hold — no std::length_error/bad_alloc
    // escaping, no silent overflow to a tiny tensor.
    const auto craft = [](std::initializer_list<std::uint64_t> dims) {
        std::ostringstream oss(std::ios::binary);
        wire::write_u32(oss, 0x54524853u);  // 'SHRT'
        wire::write_u32(oss, static_cast<std::uint32_t>(dims.size()));
        for (const std::uint64_t d : dims) {
            wire::write_u64(oss, d);
        }
        return oss.str();
    };
    for (const std::string& bytes :
         {craft({0xFFFFFFFFull, 0xFFFFFFFFull}),
          craft({1ull << 31, 1ull << 31, 1ull << 31, 1ull << 31}),
          craft({1ull << 40})}) {
        std::istringstream is(bytes, std::ios::binary);
        EXPECT_THROW(read_tensor_checked(is), SerializeError);
    }
}

/**
 * A stream over `bytes` that, like a pipe, can neither seek nor tell
 * its length, and hands out at most 4 KiB per refill.
 */
class PipeBuffer : public std::streambuf
{
  public:
    explicit PipeBuffer(std::string bytes) : bytes_(std::move(bytes)) {}

  protected:
    int_type underflow() override
    {
        if (at_ == bytes_.size()) {
            return traits_type::eof();
        }
        const std::size_t n = std::min<std::size_t>(4096, bytes_.size() - at_);
        char* begin = &bytes_[at_];
        setg(begin, begin, begin + n);
        at_ += n;
        return traits_type::to_int_type(*begin);
    }

  private:
    std::string bytes_;
    std::size_t at_ = 0;
};

TEST(SerializeChecked, StreamOfUnknownLengthIsReadAsItArrives)
{
    // 200 KB of payload: the reader grows the tensor over several
    // steps, since the stream cannot vouch for the bytes up front.
    Rng rng(8);
    const Tensor t = Tensor::normal(Shape({50000}), rng);
    const std::string bytes = tensor_to_bytes(t);
    {
        PipeBuffer pipe(bytes);
        std::istream is(&pipe);
        const Tensor u = read_tensor_checked(is);
        EXPECT_EQ(u.shape(), t.shape());
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(t, u), 0.0);
    }
    {
        PipeBuffer pipe(bytes.substr(0, 70000));
        std::istream is(&pipe);
        EXPECT_THROW(read_tensor_checked(is), SerializeError);
    }
}

TEST(SerializeChecked, WireStringLengthGuard)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    wire::write_string(ss, std::string(64, 'x'));
    EXPECT_THROW(wire::read_string(ss, /*max_len=*/16), SerializeError);
}

TEST(SerializeDeath, BadMagicIsFatal)
{
    std::string junk = "XXXXYYYYZZZZ";
    EXPECT_EXIT(tensor_from_bytes(junk), ::testing::ExitedWithCode(1),
                "magic");
}

TEST(SerializeDeath, TruncatedPayloadIsFatal)
{
    Tensor t = Tensor::from_vector({1, 2, 3, 4});
    std::string bytes = tensor_to_bytes(t);
    bytes.resize(bytes.size() - 5);
    EXPECT_EXIT(tensor_from_bytes(bytes), ::testing::ExitedWithCode(1),
                "truncated");
}

}  // namespace
}  // namespace shredder
