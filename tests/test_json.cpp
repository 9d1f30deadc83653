#include "io/json.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>

#include "test_common.h"

namespace alfi::io {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_EQ(Json::parse("-12").as_int(), -12);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, AsIntRejectsNumbersNoIntegerHolds) {
  EXPECT_EQ(Json::parse("9007199254740991").as_int(), 9007199254740991LL);
  EXPECT_EQ(Json::parse("-9.2e18").as_int(), -9200000000000000000LL);
  EXPECT_EQ(Json::parse("1e3").as_int(), 1000);
  for (const char* text : {"1.5", "-0.25", "1e30", "-1e19", "9.3e18"}) {
    EXPECT_THROW(Json::parse(text).as_int(), ParseError) << text;
  }
  for (const double value : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(Json(value).as_int(), ParseError) << value;
  }
}

TEST(JsonParse, RefusesIntegerTokensANumberCannotHold) {
  // An integer token (no fraction, no exponent) is held exactly or
  // refused: 2^53 + 1 would otherwise read as 2^53.
  EXPECT_EQ(Json::parse("9007199254740992").as_int(), 9007199254740992LL);
  EXPECT_EQ(Json::parse("-9007199254740992").as_int(), -9007199254740992LL);
  for (const char* text : {"9007199254740993", "-9007199254740993", "+9007199254740993",
                           "18446744073709551616", "[1, 9007199254740993]",
                           "{\"dataset_size\": 9007199254740993}"}) {
    EXPECT_THROW(Json::parse(text), ParseError) << text;
  }
  EXPECT_DOUBLE_EQ(Json::parse("9007199254740993.0").as_number(), 9007199254740992.0);
  EXPECT_DOUBLE_EQ(Json::parse("9.007199254740993e15").as_number(), 9007199254740992.0);
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
}

TEST(JsonParse, NestedStructure) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_EQ(doc.at("a").as_array()[2].at("b").as_bool(), true);
  EXPECT_TRUE(doc.at("c").is_null());
}

TEST(JsonParse, StringEscapes) {
  const Json doc = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_THROW(Json::parse("{} x"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,"), ParseError);
  EXPECT_THROW(Json::parse("{'single'}"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
}

TEST(JsonParse, WhitespaceTolerant) {
  const Json doc = Json::parse("  {\n \"k\" :\t[ 1 ,2 ]\r\n} ");
  EXPECT_EQ(doc.at("k").as_array().size(), 2u);
}

TEST(JsonDump, RoundTripsComplexDocuments) {
  const std::string text =
      R"({"name":"run1","faults":[{"layer":3,"bit":30},{"layer":0,"bit":22}],"rate":0.118,"ok":true,"none":null})";
  const Json doc = Json::parse(text);
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed.at("name").as_string(), "run1");
  EXPECT_EQ(reparsed.at("faults").as_array()[0].at("layer").as_int(), 3);
  EXPECT_DOUBLE_EQ(reparsed.at("rate").as_number(), 0.118);
  EXPECT_TRUE(reparsed.at("none").is_null());
}

TEST(JsonDump, PreservesKeyInsertionOrder) {
  Json doc = Json::object();
  doc["zeta"] = Json(1);
  doc["alpha"] = Json(2);
  doc["mid"] = Json(3);
  const std::string text = doc.dump();
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
  EXPECT_LT(text.find("alpha"), text.find("mid"));
}

TEST(JsonDump, IntegersHaveNoDecimalPoint) {
  EXPECT_EQ(Json(5).dump(), "5");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(JsonDump, EscapesControlCharacters) {
  const Json doc{std::string("a\"b\nc")};
  EXPECT_EQ(Json::parse(doc.dump()).as_string(), "a\"b\nc");
}

TEST(JsonObject, BracketCreatesAndAtThrows) {
  Json doc = Json::object();
  doc["x"] = Json(1);
  EXPECT_TRUE(doc.contains("x"));
  EXPECT_FALSE(doc.contains("y"));
  EXPECT_THROW(doc.at("y"), ParseError);
}

TEST(JsonObject, BracketOnNullPromotesToObject) {
  Json doc;
  doc["k"]["nested"] = Json(7);
  EXPECT_EQ(doc.at("k").at("nested").as_int(), 7);
}

TEST(JsonArray, PushBackOnNullPromotesToArray) {
  Json doc;
  doc.push_back(Json(1));
  doc.push_back(Json(2));
  EXPECT_EQ(doc.as_array().size(), 2u);
}

TEST(JsonTypeChecks, WrongAccessorThrows) {
  const Json doc = Json::parse("[1]");
  EXPECT_THROW(doc.as_object(), Error);
  EXPECT_THROW(doc.as_string(), Error);
  EXPECT_THROW(Json(1).as_bool(), Error);
}

TEST(JsonFile, WriteAndReadBack) {
  test::TempDir dir("json");
  Json doc = Json::object();
  doc["answer"] = Json(42);
  write_json_file(dir.file("doc.json"), doc);
  const Json loaded = read_json_file(dir.file("doc.json"));
  EXPECT_EQ(loaded.at("answer").as_int(), 42);
}

TEST(JsonFile, MissingFileThrowsIoError) {
  EXPECT_THROW(read_json_file("/nonexistent/path/x.json"), IoError);
}

TEST(JsonDump, IndentedOutputParses) {
  Json doc = Json::object();
  doc["list"].push_back(Json(1));
  Json inner = Json::object();
  inner["k"] = Json("v");
  doc["list"].push_back(inner);
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).at("list").as_array().size(), 2u);
}

TEST(JsonNumbers, DoublesRoundTripBitExact) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           1e-300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           -2.5e-12,
                           123456789.123456789,
                           0x1p53 + 2.0,
                           -0x1p54};
  for (const double v : values) {
    const Json doc{v};
    const double back = Json::parse(doc.dump()).as_number();
    EXPECT_EQ(back, v) << "value " << v << " serialized as " << doc.dump();
  }
}

TEST(JsonNumbers, SerializationIgnoresCommaDecimalLocale) {
  // A locale with ',' as the decimal separator must not leak into JSON
  // output or parsing: %g-style formatting would emit "0,5" here, which
  // is invalid JSON and breaks cross-host artifact exchange.
  const char* old = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = old ? old : "C";
  const char* entered = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (entered == nullptr) entered = std::setlocale(LC_NUMERIC, "de_DE.utf8");
  if (entered == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed; skipping";
  }
  // setlocale returns a pointer into static storage; copy before the
  // next call overwrites it.
  const std::string comma_locale = entered;

  const Json doc{0.5};
  const std::string text = doc.dump();
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_EQ(text.find(','), std::string::npos) << "locale leaked: " << text;
  EXPECT_DOUBLE_EQ(Json::parse(text).as_number(), 0.5);

  // Parsing must also be locale-independent: re-enter the locale and
  // parse a canonical '.'-separated literal.
  if (std::setlocale(LC_NUMERIC, comma_locale.c_str()) != nullptr) {
    const double back = Json::parse("[2.25]").as_array()[0].as_number();
    std::setlocale(LC_NUMERIC, saved.c_str());
    EXPECT_DOUBLE_EQ(back, 2.25);
  }
}

}  // namespace
}  // namespace alfi::io
