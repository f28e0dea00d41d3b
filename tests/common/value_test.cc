#include "common/value.h"

#include <gtest/gtest.h>

namespace snapper {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, Scalars) {
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value(int64_t{-5}).AsInt(), -5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, IntWidensToDouble) {
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).AsDouble(), 7.0);
}

TEST(ValueTest, ListAccess) {
  Value v(ValueList{Value(1), Value("two"), Value(3.0)});
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.At(0).AsInt(), 1);
  EXPECT_EQ(v.At(1).AsString(), "two");
  EXPECT_TRUE(v.At(99).is_null());
}

TEST(ValueTest, MapAccess) {
  Value v(ValueMap{{"amount", Value(100.0)}, {"to", Value(int64_t{7})}});
  EXPECT_TRUE(v.is_map());
  EXPECT_DOUBLE_EQ(v["amount"].AsDouble(), 100.0);
  EXPECT_EQ(v["to"].AsInt(), 7);
  EXPECT_TRUE(v["missing"].is_null());
}

TEST(ValueTest, MutableListAndMap) {
  Value v;
  v.AsList().push_back(Value(1));
  v.AsList().push_back(Value(2));
  EXPECT_EQ(v.size(), 2u);

  Value m;
  m.AsMap()["k"] = Value("v");
  EXPECT_EQ(m["k"].AsString(), "v");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value(1.0));  // int vs double are distinct types
  EXPECT_EQ(Value(ValueList{Value(1)}), Value(ValueList{Value(1)}));
}

void ExpectRoundTrip(const Value& original) {
  std::string encoded = original.Encode();
  std::string_view in = encoded;
  Value decoded;
  ASSERT_TRUE(decoded.DecodeFrom(&in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded, original);
}

// gtest names a Value case by a byte dump of the object. For an int or a
// double the leading bytes are the number itself, so that name is the same
// in every process.
class ValueRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTripTest, EncodeDecodeIdentity) {
  ExpectRoundTrip(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllShapes, ValueRoundTripTest,
                         ::testing::Values(Value(int64_t{0}),
                                           Value(int64_t{-1}),
                                           Value(int64_t{1} << 62),
                                           Value(0.0), Value(-2.75)));

// The other shapes lead with a pointer or with bytes the variant leaves
// unset, so a byte dump would name them differently in every process; they
// carry a fixed name instead.
struct NamedValue {
  const char* name;
  Value value;
};

void PrintTo(const NamedValue& p, std::ostream* os) { *os << p.name; }

class NamedValueRoundTripTest : public ::testing::TestWithParam<NamedValue> {};

TEST_P(NamedValueRoundTripTest, EncodeDecodeIdentity) {
  ExpectRoundTrip(GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, NamedValueRoundTripTest,
    ::testing::Values(
        NamedValue{"null", Value()}, NamedValue{"true", Value(true)},
        NamedValue{"false", Value(false)}, NamedValue{"empty_string", Value("")},
        NamedValue{"short_string", Value("hello world")},
        NamedValue{"long_string", Value(std::string(1000, 'x'))},
        NamedValue{"empty_list", Value(ValueList{})},
        NamedValue{"int_list", Value(ValueList{Value(1), Value(2), Value(3)})},
        NamedValue{"empty_map", Value(ValueMap{})},
        NamedValue{"mixed_map",
                   Value(ValueMap{{"a", Value(1)}, {"b", Value("two")}})},
        NamedValue{"nested",
                   Value(ValueList{
                       Value(ValueMap{{"nested", Value(ValueList{Value(1)})}}),
                       Value("mix")})}));

TEST(ValueTest, DecodeRejectsTruncation) {
  Value v(ValueMap{{"key", Value("some value here")}});
  std::string encoded = v.Encode();
  for (size_t cut = 1; cut < encoded.size(); ++cut) {
    std::string_view in(encoded.data(), encoded.size() - cut);
    Value out;
    EXPECT_FALSE(out.DecodeFrom(&in)) << "cut=" << cut;
  }
}

TEST(ValueTest, DecodeRejectsBadTag) {
  std::string bad = "\x63";
  std::string_view in = bad;
  Value out;
  EXPECT_FALSE(out.DecodeFrom(&in));
}

TEST(ValueTest, DecodeRejectsHugeClaimedList) {
  // Claims 2^40 elements with a 2-byte body: must fail fast, not allocate.
  std::string bad;
  bad.push_back(static_cast<char>(5));  // kList
  for (int i = 0; i < 5; ++i) bad.push_back(static_cast<char>(0x80));
  bad.push_back(static_cast<char>(0x40));
  std::string_view in = bad;
  Value out;
  EXPECT_FALSE(out.DecodeFrom(&in));
}

TEST(ValueTest, DecodeRejectsDeepRecursion) {
  // 100 nested single-element lists exceeds the decoder depth limit.
  std::string deep;
  for (int i = 0; i < 100; ++i) {
    deep.push_back(static_cast<char>(5));  // kList
    deep.push_back(static_cast<char>(1));  // one element
  }
  deep.push_back(static_cast<char>(0));  // innermost null
  std::string_view in = deep;
  Value out;
  EXPECT_FALSE(out.DecodeFrom(&in));
}

TEST(ValueTest, ToStringRendersJson) {
  Value v(ValueMap{{"a", Value(1)}, {"b", Value(ValueList{Value(true)})}});
  EXPECT_EQ(v.ToString(), "{\"a\":1,\"b\":[true]}");
}

}  // namespace
}  // namespace snapper
