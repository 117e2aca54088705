/**
 * @file
 * Runs a property on part of a parameterised fixture's grid.
 *
 * gtest runs every TEST_P of a fixture on every point its
 * INSTANTIATE_TEST_SUITE_P generates, so a property that is defined
 * only on some points would have to skip the others. registerOnSubgrid
 * registers the property on exactly those points instead, under the
 * names the grid gives its own cases:
 * `<prefix>/<Fixture>.<test>/<point name>  # GetParam() = <point>`.
 */

#ifndef TPCP_TESTS_PROPERTIES_SUBGRID_HH
#define TPCP_TESTS_PROPERTIES_SUBGRID_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <source_location>
#include <string>
#include <utility>
#include <vector>

namespace tpcp::test
{

/**
 * Registers @p property as test @p test of suite @p suite (the grid's
 * "<prefix>/<Fixture>") once per point of @p points, named by the
 * grid's own @p name generator. Call it during static initialisation,
 * like the TEST_P macros themselves. Returns true, for the static.
 */
template <typename Fixture, typename NameFn>
bool
registerOnSubgrid(
    const char *suite, const char *test,
    const std::vector<typename Fixture::ParamType> &points, NameFn name,
    void (*property)(const typename Fixture::ParamType &),
    std::source_location where = std::source_location::current())
{
    using Point = typename Fixture::ParamType;
    // Same fixture class as the grid's cases, so gtest accepts both
    // in one suite; the point is passed in, not read by GetParam().
    class Case : public Fixture
    {
      public:
        Case(Point point, void (*property)(const Point &))
            : point(std::move(point)), property(property)
        {
        }

        void TestBody() override { property(point); }

      private:
        Point point;
        void (*property)(const Point &);
    };

    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &point = points[i];
        const std::string full =
            std::string(test) + "/" +
            name(::testing::TestParamInfo<Point>(point, i));
        ::testing::RegisterTest(
            suite, full.c_str(), nullptr,
            ::testing::PrintToString(point).c_str(), where.file_name(),
            static_cast<int>(where.line()),
            [point, property]() -> Fixture * {
                return new Case(point, property);
            });
    }
    return true;
}

} // namespace tpcp::test

#endif // TPCP_TESTS_PROPERTIES_SUBGRID_HH
